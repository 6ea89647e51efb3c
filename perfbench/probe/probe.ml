(* In-process half of the benchmark driven by perfbench/run.py.

     probe gen    --seed S --rows N --dir D
     probe check  --dir D --model M --boosted B
     probe trace  --stage train|batch|ingest|online --dir D --model M --boosted B
                  --slice-rows R [--spans F]

   [gen] draws two KDD-like training feeds and a test feed from the seed
   and writes them as files the program under test reads, [setup_repeats]
   times, reporting each set-up time. [check] loads
   the models the CLI trained and writes the reference predictions every
   served output is compared with. [trace] calls each layer's public
   functions on the same inputs, timing each call as a span; the spans
   stay in memory and are written to F as JSON at exit. Each stage runs
   in a fresh process, as the CLI command it explains does. Every
   subcommand prints one JSON object on its last stdout line. *)

open Pn_data

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let tracing = ref true

let spans : span list ref = ref []

let next_id = ref 0

let stack = ref [ -1 ]

(* [span name f] runs [f] and, when tracing, records its interval under
   the innermost open span. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        spans := { id; parent; name; t0; t1 } :: !spans)
      f
  end

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.t0 s.t1)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [timed ~reps name f] runs [f] [reps] times, each in its own span, and
   returns the median duration in seconds with the last result. *)
let timed ?(reps = 1) name f =
  let rec go k acc last =
    if k = 0 then (median acc, Option.get last)
    else begin
      let t0 = now () in
      let r = span name f in
      go (k - 1) ((now () -. t0) :: acc) (Some r)
    end
  in
  go reps [] None

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let fields : (string * string) list ref = ref []

let put_num k v = fields := (k, Printf.sprintf "%.9g" v) :: !fields

let put_int k v = fields := (k, string_of_int v) :: !fields

let failures : string list ref = ref []

let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let json_string s = Printf.sprintf "\"%s\"" (String.escaped s)

let print_result () =
  let kv = List.rev_map (fun (k, v) -> json_string k ^ ":" ^ v) !fields in
  let fl = List.rev_map json_string !failures in
  Printf.printf "{%s%s\"failures\":[%s]}\n%!" (String.concat "," kv)
    (if kv = [] then "" else ",")
    (String.concat "," fl)

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let target_name = "r2l"

let train_path dir = Filename.concat dir "train.pnc"

let second_train_path dir = Filename.concat dir "train-b.pnc"

let test_csv dir = Filename.concat dir "test.csv"

let test_pnc dir = Filename.concat dir "test.pnc"

let reference_path dir = Filename.concat dir "reference.csv"

(* The second training feed's and the test feed's seeds are derived from
   the workload seed, so no two feeds share a stream. *)
let second_train_seed seed = (seed * 7919) + 1_299_709

let test_seed seed = (seed * 7919) + 104_729

let scratch = Bytes.create 32

(* [fixed6 buf x] appends [x] rounded to 6 decimals, trailing zeros
   dropped, and returns the float that text parses back to: both are the
   correctly rounded value of k / 10^6, so the CSV and .pnc feeds hold
   the same numbers. *)
let fixed6 buf x =
  let k = Float.to_int (Float.round (x *. 1e6)) in
  let a = ref (abs k) and i = ref 31 and in_zeros = ref true in
  let digit d =
    Bytes.set scratch !i (Char.chr (48 + d));
    decr i
  in
  for _ = 1 to 6 do
    let d = !a mod 10 in
    a := !a / 10;
    if not (!in_zeros && d = 0) then begin
      in_zeros := false;
      digit d
    end
  done;
  if not !in_zeros then begin
    Bytes.set scratch !i '.';
    decr i
  end;
  digit (!a mod 10);
  a := !a / 10;
  while !a > 0 do
    digit (!a mod 10);
    a := !a / 10
  done;
  if k < 0 then begin
    Bytes.set scratch !i '-';
    decr i
  end;
  Buffer.add_subbytes buf scratch (!i + 1) (31 - !i);
  Float.of_int k /. 1e6

(* Writes [ds] as CSV (header row, class column last) and returns the
   dataset the CSV text decodes to. *)
let write_test_feed ds path =
  let open Dataset in
  let n = n_records ds in
  let rounded =
    Array.map (function Num a -> Num (Array.copy a) | Cat a -> Cat a) ds.columns
  in
  let names =
    Array.map
      (fun (a : Attribute.t) ->
        match a.kind with
        | Attribute.Categorical v -> Array.map Csv_io.escape v
        | Attribute.Numeric -> [||])
      ds.attrs
  in
  let classes = Array.map Csv_io.escape ds.classes in
  let buf = Buffer.create (1 lsl 17) in
  let oc = open_out_bin path in
  let header =
    Array.to_list (Array.map (fun (a : Attribute.t) -> a.name) ds.attrs) @ [ "class" ]
  in
  Buffer.add_string buf (String.concat "," (List.map Csv_io.escape header));
  Buffer.add_char buf '\n';
  for i = 0 to n - 1 do
    Array.iteri
      (fun j col ->
        if j > 0 then Buffer.add_char buf ',';
        match col with
        | Num a -> a.(i) <- fixed6 buf a.(i)
        | Cat a -> Buffer.add_string buf names.(j).(a.(i)))
      rounded;
    Buffer.add_char buf ',';
    Buffer.add_string buf classes.(ds.labels.(i));
    Buffer.add_char buf '\n';
    if Buffer.length buf > 1 lsl 16 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  done;
  Buffer.output_buffer oc buf;
  close_out oc;
  create ~attrs:ds.attrs ~columns:rounded ~labels:ds.labels ~classes:ds.classes ()

let setup_repeats = 3

let gen ~seed ~rows ~dir =
  let times =
    List.init setup_repeats (fun _ ->
        let t0 = now () in
        Columnar.save (Pn_synth.Kddcup.train ~seed ~n:rows) (train_path dir);
        Columnar.save
          (Pn_synth.Kddcup.train ~seed:(second_train_seed seed) ~n:rows)
          (second_train_path dir);
        let test = Pn_synth.Kddcup.test ~seed:(test_seed seed) ~n:rows in
        let test = write_test_feed test (test_csv dir) in
        Columnar.save test (test_pnc dir);
        now () -. t0)
  in
  fields :=
    [ ("setup_s", "[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") times) ^ "]") ];
  put_int "rows" rows

(* ------------------------------------------------------------------ *)
(* Models and reference predictions                                     *)
(* ------------------------------------------------------------------ *)

let model_counts = function
  | Pnrule.Saved.Single m ->
    let p, n = Pnrule.Model.rule_counts m in
    ( p,
      n,
      Pn_rules.Rule_list.total_conditions m.Pnrule.Model.p_rules
      + Pn_rules.Rule_list.total_conditions m.Pnrule.Model.n_rules )
  | Pnrule.Saved.Boosted _ -> invalid_arg "model_counts: boosted model"

let members = function
  | Pnrule.Saved.Boosted e -> Pnrule.Ensemble.n_members e
  | Pnrule.Saved.Single _ -> invalid_arg "members: single model"

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let f_measure (r : Pnrule.Serve.report) =
  match r.confusion with
  | Some cm -> Pn_metrics.Confusion.f_measure cm
  | None -> nan

let check ~dir ~model ~boosted =
  let sm = Pnrule.Serialize.load_saved model in
  let p, n, conds = model_counts sm in
  put_int "p_rules" p;
  put_int "n_rules" n;
  put_int "conditions" conds;
  put_int "members" (members (Pnrule.Serialize.load_saved boosted));
  let report =
    with_out (reference_path dir) (fun output ->
        Pnrule.Serve.predict_pnc ~model:sm ~input:(test_pnc dir) ~output ())
  in
  put_int "rows_out" report.rows_out;
  put_num "f" (f_measure report)

(* ------------------------------------------------------------------ *)
(* Traced layer calls                                                   *)
(* ------------------------------------------------------------------ *)

let ms s = s *. 1e3

(* [pnrule train]'s defaults (--rp 0.95 --rn 0.7, Z-number) are these. *)
let cli_params = Pnrule.Params.default

let boosted_sampling =
  let get = function Ok v -> v | Error e -> failwith e in
  {
    Pn_induct.Sampling.instances =
      get (Pn_induct.Sampling.instances_of_string "strat:0.1:50");
    features = get (Pn_induct.Sampling.features_of_string "sqrt");
    seed = 1;
  }

(* The sort cache is filled once on a fresh load and timed on its own;
   every training call below reuses it, so the P-phase, full-train and
   ensemble spans hold search time only. *)
let trace_train ~dir ~model ~boosted =
  let t_load, ds = timed "data.columnar_load" (fun () -> Columnar.load (train_path dir)) in
  put_num "data.columnar_load_ms" (ms t_load);
  let target = Dataset.class_index ds target_name in
  (* Fanned over the default pool, as the learner's attribute scans do. *)
  let t_sort, _ =
    timed "data.sort_cache" (fun () ->
        Pn_util.Pool.map_array (Pn_util.Pool.get_default ()) (Array.length ds.Dataset.attrs)
          (fun col ->
            if Attribute.is_numeric ds.Dataset.attrs.(col) then
              ignore (Dataset.sorted_order ds ~col)))
  in
  put_num "data.sort_cache_ms" (ms t_sort);
  let pos = Dataset.class_weight ds target in
  let ctx =
    { Pn_metrics.Rule_metric.pos_total = pos; neg_total = Dataset.total_weight ds -. pos }
  in
  let t_best, _ =
    timed ~reps:3 "induct.best_condition" (fun () ->
        Pn_induct.Grower.best_condition ~metric:Pn_metrics.Rule_metric.Z_number
          ~ctx ~target (View.all ds))
  in
  put_num "induct.best_condition_ms" (ms t_best);
  put_int "induct.candidate_space" (Pn_induct.Grower.candidate_space_size ds);
  (* P-only and full training alternate, so drift hits both alike. *)
  let p_params = { cli_params with enable_n_phase = false } in
  let runs =
    List.init 2 (fun _ ->
        let t_p, _ = timed "core.p_phase" (fun () -> Pnrule.Learner.train ~params:p_params ds ~target) in
        let t_full, m = timed "core.full_train" (fun () -> Pnrule.Learner.train ~params:cli_params ds ~target) in
        (t_p, t_full, m))
  in
  let t_p = median (List.map (fun (t, _, _) -> t) runs) in
  let t_full = median (List.map (fun (_, t, _) -> t) runs) in
  let _, _, m = List.hd runs in
  put_num "core.p_phase_s" t_p;
  put_num "core.n_phase_s" (t_full -. t_p);
  let t_eval, _ = timed ~reps:3 "core.evaluate" (fun () -> Pnrule.Model.evaluate m ds) in
  put_num "core.evaluate_ms" (ms t_eval);
  let sm = Pnrule.Saved.Single m in
  let t_ser, () =
    timed ~reps:3 "core.serialize" (fun () ->
        Pnrule.Serialize.save_saved sm (Filename.concat dir "trace-model.pn"))
  in
  put_num "core.serialize_ms" (ms t_ser);
  let p, n, conds = model_counts sm in
  put_int "core.p_rules" p;
  put_int "core.n_rules" n;
  put_int "rules.conditions" conds;
  let same a b = Pnrule.Serialize.string_of_saved a = Pnrule.Serialize.string_of_saved b in
  if not (same sm (Pnrule.Serialize.load_saved model)) then
    fail "train: in-process PNrule model differs from the CLI's";
  let t_ens, e =
    timed "core.ensemble_train" (fun () ->
        Pnrule.Ensemble.train ~sampling:boosted_sampling ds ~target)
  in
  put_num "core.ensemble_train_s" t_ens;
  put_int "core.ensemble_members" (Pnrule.Ensemble.n_members e);
  if not (same (Pnrule.Saved.Boosted e) (Pnrule.Serialize.load_saved boosted)) then
    fail "train: in-process boosted ensemble differs from the CLI's";
  (* What the CLI's two train commands spend in-process; run.py books
     the rest of their wall time as the residual rows. *)
  put_num "ledger.train_in_process_s" (t_load +. t_sort +. t_full +. t_ser);
  put_num "ledger.boosted_in_process_s" (t_load +. t_sort +. t_ens +. t_ser)

(* Each group starts from a compacted heap holding only the model, as
   the CLI command it explains starts from a fresh process; the predicts
   go first, before anything else has grown the heap. Ingest is traced
   in a process of its own. *)
let trace_batch ~dir ~model =
  let reference = read_file (reference_path dir) in
  let t_model, sm = timed ~reps:3 "core.model_load" (fun () -> Pnrule.Serialize.load_saved model) in
  put_num "core.model_load_ms" (ms t_model);
  let out = Filename.concat dir "trace-predictions.csv" in
  let predict name f =
    Gc.compact ();
    let t, report = timed name (fun () -> with_out out (fun output -> f output)) in
    if read_file out <> reference then fail "batch: in-process %s output differs from the reference" name;
    (t, report)
  in
  let t_pcsv, report =
    predict "core.predict_csv" (fun output ->
        Pnrule.Serve.predict_csv ~model:sm ~input:(test_csv dir) ~output ())
  in
  put_num "core.predict_csv_ms" (ms t_pcsv);
  put_int "core.chunks" report.chunks;
  let t_ppnc, _ =
    predict "core.predict_pnc" (fun output ->
        Pnrule.Serve.predict_pnc ~model:sm ~input:(test_pnc dir) ~output ())
  in
  put_num "core.predict_pnc_ms" (ms t_ppnc);
  Gc.compact ();
  let t_decode, rows =
    timed "data.stream_decode" (fun () ->
        In_channel.with_open_bin (test_csv dir) (fun ic ->
            Stream.fold_csv (Stream.of_channel ic) ~init:0 ~f:(fun acc ~line:_ _ -> acc + 1)))
  in
  put_num "data.stream_decode_ms" (ms t_decode);
  let t_read, _ =
    timed ~reps:3 "data.columnar_read" (fun () ->
        In_channel.with_open_bin (test_pnc dir) (fun ic ->
            let r = Columnar.open_reader (Stream.of_channel ic) in
            let rec go () = if Columnar.read_group r <> None then go () in
            go ()))
  in
  put_num "data.columnar_read_ms" (ms t_read);
  let t_eval =
    let test = Columnar.load (test_pnc dir) in
    Gc.compact ();
    fst (timed ~reps:3 "rules.eval_batch" (fun () -> Pnrule.Saved.eval_batch sm test))
  in
  put_num "rules.eval_batch_ms" (ms t_eval);
  put_num "core.serve_residual_ms" (ms (t_pcsv -. t_decode -. t_eval));
  put_int "data.csv_rows" (rows - 1)

(* What [pnrule ingest] does, in a process of its own as the CLI's is. *)
let trace_ingest ~dir =
  let t_csv, ds_csv = timed "data.csv_load" (fun () -> Csv_io.load (test_csv dir)) in
  put_num "data.csv_load_ms" (ms t_csv);
  put_int "data.ingest_rows" (Dataset.n_records ds_csv);
  let t_write, () =
    timed "data.columnar_write" (fun () ->
        Columnar.save ds_csv (Filename.concat dir "trace-ingest.pnc"))
  in
  put_num "data.columnar_write_ms" (ms t_write)

(* Per-request costs of the online path, on the first [trace_slices] of
   the request bodies the load generator posts, with the sequential pool
   each daemon worker domain scores on. *)
let trace_slices = 2000

let trace_online ~dir ~model ~slice_rows =
  let sm = Pnrule.Serialize.load_saved model in
  let lines = String.split_on_char '\n' (read_file (test_csv dir)) |> Array.of_list in
  let header = lines.(0) in
  let reference = String.split_on_char '\n' (read_file (reference_path dir)) |> Array.of_list in
  let test = Columnar.load (test_pnc dir) in
  let n_slices = min trace_slices ((Array.length lines - 2) / slice_rows) in
  let body k =
    String.concat "\n"
      (header :: Array.to_list (Array.sub lines (1 + (k * slice_rows)) slice_rows))
    ^ "\n"
  in
  let expected k =
    String.concat "\n"
      (reference.(0) :: Array.to_list (Array.sub reference (1 + (k * slice_rows)) slice_rows))
    ^ "\n"
  in
  let bodies = Array.init n_slices body in
  let subsets =
    Array.init n_slices (fun k -> Dataset.subset test (Array.init slice_rows (fun i -> (k * slice_rows) + i)))
  in
  let us s = s *. 1e6 in
  let per_request name f =
    median (List.init n_slices (fun k -> fst (timed name (fun () -> f k))))
  in
  let predict k =
    let buf = Buffer.create 256 in
    ignore
      (Pnrule.Serve.predict_stream ~pool:Pn_util.Pool.sequential ~model:sm
         ~source:(Stream.of_string bodies.(k)) ~write:(Buffer.add_string buf) ());
    Buffer.contents buf
  in
  let decode k =
    Stream.fold_csv (Stream.of_string bodies.(k)) ~init:0 ~f:(fun acc ~line:_ _ -> acc + 1)
  in
  put_num "data.stream_decode_us" (us (per_request "data.stream_decode" (fun k -> ignore (decode k))));
  put_num "rules.eval_batch_us"
    (us (per_request "rules.eval_batch" (fun k ->
         ignore (Pnrule.Saved.eval_batch ~pool:Pn_util.Pool.sequential sm subsets.(k)))));
  let mismatched = ref 0 in
  put_num "core.predict_stream_us"
    (us
       (per_request "core.predict_stream" (fun k ->
            if predict k <> expected k then incr mismatched)));
  if !mismatched > 0 then fail "online: %d in-process responses differ from the reference" !mismatched;
  (* Tracing overhead: the same loop with the recorder off, then on. *)
  let loop () =
    let t0 = now () in
    for k = 0 to n_slices - 1 do
      ignore (span "core.predict_stream" (fun () -> predict k))
    done;
    now () -. t0
  in
  let pass on =
    tracing := on;
    loop ()
  in
  (* Paired passes in alternating order, so drift cancels. *)
  let diffs =
    List.init 4 (fun i ->
        if i mod 2 = 0 then
          let off = pass false in
          pass true -. off
        else
          let on = pass true in
          on -. pass false)
  in
  put_num "trace.overhead_us" (us (median diffs /. float_of_int n_slices))

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let seed = ref 1 and rows = ref 100_000 and dir = ref "." in
  let model = ref "" and boosted = ref "" and slice_rows = ref 16 in
  let spans_out = ref "" and stage = ref "" in
  let cmd = ref "" in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--rows", Arg.Set_int rows, "rows per feed");
      ("--dir", Arg.Set_string dir, "work directory");
      ("--model", Arg.Set_string model, "PNrule model file");
      ("--boosted", Arg.Set_string boosted, "boosted model file");
      ("--slice-rows", Arg.Set_int slice_rows, "trace: rows per request");
      ("--spans", Arg.Set_string spans_out, "trace: span output file");
      ("--stage", Arg.Set_string stage, "trace: train, batch, ingest or online");
    ]
  in
  Arg.parse specs (fun s -> cmd := s) "probe (gen|check|trace) [options]";
  let dir = !dir and model = !model and boosted = !boosted in
  (match !cmd with
  | "gen" -> gen ~seed:!seed ~rows:!rows ~dir
  | "check" -> check ~dir ~model ~boosted
  | "trace" ->
    (try
       match !stage with
       | "train" -> trace_train ~dir ~model ~boosted
       | "batch" -> trace_batch ~dir ~model
       | "ingest" -> trace_ingest ~dir
       | "online" -> trace_online ~dir ~model ~slice_rows:!slice_rows
       | other -> fail "unknown stage %S" other
     with e -> fail "%s: %s" !stage (Printexc.to_string e));
    if !spans_out <> "" then write_spans !spans_out
  | other ->
    prerr_endline ("probe: unknown command " ^ other);
    exit 2);
  print_result ()
