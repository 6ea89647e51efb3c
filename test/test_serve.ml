(* Tests for the serving core's per-request memory: chunk buffers grow
   with the rows a feed carries, never to [chunk_size] or the file's
   group size up front, and the growth never moves a chunk boundary. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module C = Pn_data.Columnar
module R = Pn_data.Ingest_report

let classes = [| "normal"; "rare" |]

let cats = [| "a"; "b"; "z" |]

(* Six features, the rare class planted on [x0] so the model has rules
   whose outcome depends on imputed values. *)
let dataset ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let num () = Array.init n (fun _ -> Pn_util.Rng.float rng 100.0) in
  let cat () = Array.init n (fun _ -> Pn_util.Rng.int rng 3) in
  let x0 = num () and x1 = num () and x2 = num () and x3 = num () in
  let c0 = cat () and c1 = cat () in
  let labels =
    Array.init n (fun i ->
        if Pn_util.Rng.float rng 1.0 < 0.05 then begin
          x0.(i) <- 20.0 +. Pn_util.Rng.float rng 3.0;
          1
        end
        else 0)
  in
  D.create
    ~attrs:
      [|
        A.numeric "x0";
        A.numeric "x1";
        A.numeric "x2";
        A.numeric "x3";
        A.categorical "c0" cats;
        A.categorical "c1" cats;
      |]
    ~columns:[| D.Num x0; D.Num x1; D.Num x2; D.Num x3; D.Cat c0; D.Cat c1 |]
    ~labels ~classes ()

let model =
  lazy (Pnrule.Saved.Single (Pnrule.Learner.train (dataset ~seed:1 ~n:4_000) ~target:1))

let header = "x0,x1,x2,x3,c0,c1,class\n"

(* [n] CSV rows drawn from [seed]; with [missing] some cells are "?" or
   empty and some categorical cells name a value the model never saw,
   so Impute has chunk-local work to do. *)
let csv_rows ?(missing = false) ~seed n =
  let rng = Pn_util.Rng.create seed in
  let hole () = missing && Pn_util.Rng.int rng 8 = 0 in
  let num () =
    if hole () then if Pn_util.Rng.bool rng then "?" else ""
    else Printf.sprintf "%.3f" (Pn_util.Rng.float rng 100.0)
  in
  let cat () =
    if hole () then if Pn_util.Rng.bool rng then "?" else "new"
    else cats.(Pn_util.Rng.int rng 3)
  in
  List.init n (fun _ ->
      let x0 =
        if Pn_util.Rng.int rng 10 = 0 then
          Printf.sprintf "%.3f" (20.0 +. Pn_util.Rng.float rng 3.0)
        else num ()
      in
      String.concat ","
        [ x0; num (); num (); num (); cat (); cat (); classes.(Pn_util.Rng.int rng 2) ]
      ^ "\n")

let run_csv ?policy ?chunk_size body =
  let buf = Buffer.create 1024 in
  let writes = ref 0 in
  let report =
    Pnrule.Serve.predict_stream ?policy ?chunk_size ~scores:true
      ~pool:Pn_util.Pool.sequential ~model:(Lazy.force model)
      ~source:(Pn_data.Stream.of_string body)
      ~write:(fun s ->
        incr writes;
        Buffer.add_string buf s)
      ()
  in
  (Buffer.contents buf, !writes, report)

let run_pnc body =
  Pnrule.Serve.predict_columnar_stream ~scores:true
    ~pool:Pn_util.Pool.sequential ~model:(Lazy.force model)
    ~source:(Pn_data.Stream.of_string body)
    ~write:ignore ()

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

(* Bytes allocated by [f ()], after one warm-up call so lazily built
   state (the compiled model) is not charged to the measured call. *)
let allocated f =
  ignore (f ());
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let kib = 1024.0

let check_small ~what small large =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f B under 256 KiB" what small)
    true
    (small < 256.0 *. kib);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f B under 256 KiB at the large size" what large)
    true
    (large < 256.0 *. kib);
  Alcotest.(check bool)
    (Printf.sprintf "%s: sizes differ by %.0f B, under 64 KiB" what
       (Float.abs (large -. small)))
    true
    (Float.abs (large -. small) < 64.0 *. kib)

let test_csv_alloc_follows_rows () =
  let body = header ^ String.concat "" (csv_rows ~seed:2 16) in
  let at chunk_size =
    allocated (fun () -> run_csv ~chunk_size body)
  in
  check_small ~what:"16-row CSV body" (at 8192) (at 1_000_000)

let test_pnc_alloc_follows_rows () =
  let ds = dataset ~seed:3 ~n:16 in
  let at group_size =
    let body = C.to_string ~group_size ds in
    allocated (fun () -> run_pnc body)
  in
  check_small ~what:"16-row .pnc body" (at 8192) (at 1_000_000)

let test_growth_keeps_rows () =
  (* Without imputation, chunking cannot change a prediction: every
     chunk size, grown buffers or not, gives the same bytes, and the
     writes follow the chunk size alone. *)
  let body = header ^ String.concat "" (csv_rows ~seed:4 1_000) in
  let whole, writes, _ = run_csv ~chunk_size:1_000 body in
  Alcotest.(check int) "header + one chunk" 2 writes;
  List.iter
    (fun c ->
      let out, writes, rep = run_csv ~chunk_size:c body in
      Alcotest.(check string) (Printf.sprintf "chunk %d: same bytes" c) whole out;
      Alcotest.(check int)
        (Printf.sprintf "chunk %d: writes" c)
        (1 + ((1_000 + c - 1) / c))
        writes;
      Alcotest.(check int) "rows out" 1_000 rep.Pnrule.Serve.rows_out)
    [ 1; 64; 65; 300; 8192 ]

(* ------------------------------------------------------------------ *)
(* Oracle: chunk boundaries                                             *)
(* ------------------------------------------------------------------ *)

let rec slices c = function
  | [] -> []
  | rows ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let slice, rest = take c [] rows in
    slice :: slices c rest

let drop_header s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* Scoring a feed in [c]-row chunks must equal scoring each [c]-row
   slice as a feed of its own: chunk-local imputation makes every chunk
   boundary visible in the output, so growing buffers cannot have moved
   one. [write] is called once for the header and once per chunk. *)
let chunk_oracle =
  QCheck.Test.make ~count:60 ~name:"chunked output = per-slice runs, concatenated"
    QCheck.(
      make
        ~print:(fun (n, seed, c) -> Printf.sprintf "rows=%d seed=%d chunk=%d" n seed c)
        Gen.(
          triple (int_range 1 600) (int_bound 1_000_000)
            (oneofl [ 1; 63; 64; 65; 127; 129; 200; 8192 ])))
    (fun (n, seed, c) ->
      let rows = csv_rows ~missing:true ~seed n in
      let out, writes, _ =
        run_csv ~policy:R.Impute ~chunk_size:c (header ^ String.concat "" rows)
      in
      let expected =
        List.mapi
          (fun k slice ->
            let o, _, _ = run_csv ~policy:R.Impute (header ^ String.concat "" slice) in
            if k = 0 then o else drop_header o)
          (slices c rows)
        |> String.concat ""
      in
      if writes <> 1 + ((n + c - 1) / c) then
        QCheck.Test.fail_reportf "write called %d times, expected %d" writes
          (1 + ((n + c - 1) / c));
      out = expected)

let suite =
  [
    Alcotest.test_case "CSV: allocation follows rows, not --chunk" `Quick
      test_csv_alloc_follows_rows;
    Alcotest.test_case ".pnc: allocation follows rows, not group size" `Quick
      test_pnc_alloc_follows_rows;
    Alcotest.test_case "CSV: growth keeps every row" `Quick
      test_growth_keeps_rows;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ chunk_oracle ]
