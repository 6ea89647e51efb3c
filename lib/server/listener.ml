let log = Logs.Src.create "pn_server.listener" ~doc:"accept loop and worker pool"

module Log = (val Logs.src_log log)

type config = {
  host : string;
  port : int;
  domains : int;
  backlog : int;
  idle_timeout : float;
  queue_limit : int;
}

type handler =
  index:int -> keep:bool -> Http.conn -> Http.request -> [ `Keep | `Close ]

(* Blocking multi-producer/multi-consumer queue; [None] is the
   per-worker shutdown sentinel. *)
module Q = struct
  type 'a t = { q : 'a Queue.t; m : Mutex.t; c : Condition.t }

  let create () = { q = Queue.create (); m = Mutex.create (); c = Condition.create () }

  let push t v =
    Mutex.lock t.m;
    Queue.push v t.q;
    Condition.signal t.c;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.c t.m
    done;
    let v = Queue.pop t.q in
    Mutex.unlock t.m;
    v
end

(* One worker domain plus the flag it raises when it dies on an escaped
   exception. The accept loop polls the flag, joins the corpse, and
   respawns into the same slot (same index), so a crashed worker never
   shrinks the pool. *)
type worker_slot = { mutable domain : unit Domain.t; dead : bool Atomic.t }

type t = {
  name : string;
  config : config;
  queue : Unix.file_descr option Q.t;
  queued : int Atomic.t;  (* accepted, not yet picked up by a worker *)
  in_flight : int Atomic.t;
  connections : int Atomic.t;
  shed : int Atomic.t;
  restarts : int Atomic.t;
  stop_req : bool Atomic.t;
  draining : bool Atomic.t;
  mutable port : int;
  mutable workers : worker_slot array;
  mutable acceptor : unit Domain.t option;
}

let create ~name config =
  let bad what = invalid_arg (Printf.sprintf "%s.start: %s" name what) in
  if config.domains < 1 || config.domains > 64 then
    bad "domains must be in 1..64";
  if config.port < 0 || config.port > 65535 then bad "port must be in 0..65535";
  if config.idle_timeout <= 0.0 then bad "idle_timeout";
  if config.backlog < 1 || config.backlog > 65535 then
    bad "backlog must be in 1..65535";
  if config.queue_limit < 1 then bad "queue_limit";
  {
    name;
    config;
    queue = Q.create ();
    queued = Atomic.make 0;
    in_flight = Atomic.make 0;
    connections = Atomic.make 0;
    shed = Atomic.make 0;
    restarts = Atomic.make 0;
    stop_req = Atomic.make false;
    draining = Atomic.make false;
    port = 0;
    workers = [||];
    acceptor = None;
  }

let port t = t.port
let domains t = t.config.domains
let queue_limit t = t.config.queue_limit
let draining t = Atomic.get t.draining
let queued t = Atomic.get t.queued
let in_flight t = Atomic.get t.in_flight
let connections t = Atomic.get t.connections
let shed t = Atomic.get t.shed
let restarts t = Atomic.get t.restarts
let request_stop t = Atomic.set t.stop_req true

(* ------------------------------------------------------------------ *)
(* Worker domains                                                       *)
(* ------------------------------------------------------------------ *)

(* One request, start to finish. The in-flight count brackets the
   handler under [Fun.protect]: admission control compares it against
   the queue limit, so a decrement lost to a raising handler would
   permanently shrink capacity until everything is shed. *)
let request t handle ~on_bad_request ~index conn =
  match Http.read_request conn with
  | exception (Http.Disconnect | Http.Timeout) -> `Close
  | exception Http.Bad_request msg ->
    (try Http.respond conn ~status:400 ~body:(msg ^ "\n") () with _ -> ());
    on_bad_request ~index;
    `Close
  | req ->
    ignore (Atomic.fetch_and_add t.in_flight 1);
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add t.in_flight (-1)))
      (fun () ->
        let keep = req.Http.keep_alive && not (Atomic.get t.draining) in
        (* The one keep-alive rule: the client asked for it, no drain has
           begun, the handler agreed, and no byte of the request body is
           left unread — a leftover byte would be parsed as the next
           request head. *)
        match handle ~index ~keep conn req with
        | `Keep when keep && Http.body_consumed conn -> `Keep
        | `Keep | `Close -> `Close)

(* One connection, start to close: keep-alive requests loop until the
   client leaves, the idle timeout fires, or a drain begins. Any
   exception that escapes the handler means the connection is beyond
   saving — close it, keep the worker. The one deliberate hole: an
   injected fault ([Pn_util.Fault.Injected]) is re-raised so it kills
   the worker domain, which is exactly the crash supervision exists to
   recover from. *)
let serve_conn t handle ~on_bad_request ~index fd =
  let conn = Http.make_conn fd in
  let rec requests () =
    match
      Http.wait_readable conn ~timeout:t.config.idle_timeout ~stop:(fun () ->
          Atomic.get t.draining)
    with
    | `Timeout | `Stopped -> ()
    | `Readable -> (
      match request t handle ~on_bad_request ~index conn with
      | `Keep -> requests ()
      | `Close -> ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try requests () with
      | Pn_util.Fault.Injected _ as e -> raise e
      | _ -> ())

(* A worker never lets an exception escape its domain: it records the
   death in [dead] and returns, so [Domain.join] on the corpse is always
   clean and the accept loop can respawn it. *)
let worker t handle ~on_bad_request i dead () =
  let rec loop () =
    match Q.pop t.queue with
    | None -> ()
    | Some fd ->
      ignore (Atomic.fetch_and_add t.queued (-1));
      serve_conn t handle ~on_bad_request ~index:i fd;
      loop ()
  in
  try loop ()
  with e ->
    Log.err (fun m ->
        m "%s worker domain %d died: %s" t.name i (Printexc.to_string e));
    Atomic.set dead true

(* Supervision sweep, run from the accept loop: join any worker that
   flagged itself dead and respawn into the same slot. *)
let check_workers t spawn =
  Array.iteri
    (fun i ws ->
      if Atomic.get ws.dead then begin
        Domain.join ws.domain;
        ignore (Atomic.fetch_and_add t.restarts 1);
        Log.warn (fun m -> m "respawning dead %s worker domain %d" t.name i);
        Atomic.set ws.dead false;
        ws.domain <- spawn i ws.dead
      end)
    t.workers

(* ------------------------------------------------------------------ *)
(* Accept loop                                                          *)
(* ------------------------------------------------------------------ *)

let admit t fd =
  (* Bound every read so a stalled peer cannot pin a worker. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout
   with Unix.Unix_error _ -> ());
  (* Responses are written as header + body chunks back to back; without
     TCP_NODELAY, Nagle + delayed ACK turns that into a ~40 ms stall per
     request. *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  ignore (Atomic.fetch_and_add t.connections 1);
  (* Admission control: refuse work beyond what the worker pool plus a
     bounded queue can absorb. The estimate is in-flight requests plus
     accepted-but-unserved connections; a refusal is one canned write
     from this domain, so a saturated process sheds at accept speed
     instead of queueing work until deadlines fire. *)
  if Atomic.get t.in_flight + Atomic.get t.queued >= t.config.queue_limit then begin
    ignore (Atomic.fetch_and_add t.shed 1);
    Http.deny fd ~status:429 ~retry_after:1 ~body:"over capacity; retry later\n";
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    ignore (Atomic.fetch_and_add t.queued 1);
    Q.push t.queue (Some fd)
  end

let accept_loop t lfd ~tick spawn () =
  let rec loop () =
    tick ();
    check_workers t spawn;
    if Atomic.get t.stop_req then ()
    else begin
      (match Unix.select [ lfd ] [] [] 0.05 with
      | [ _ ], _, _ -> (
        match Unix.accept ~cloexec:true lfd with
        | fd, _ -> admit t fd
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
          ->
          ()
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          (* The listening socket was closed under us (a stop racing the
             accept). Treat it as the stop it is instead of crashing the
             domain and hanging [join]. *)
          Atomic.set t.stop_req true)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        Atomic.set t.stop_req true);
      loop ()
    end
  in
  loop ();
  (* Graceful drain: stop accepting, let queued and in-flight
     connections finish, wake idle keep-alive waits via [draining]. *)
  Log.info (fun m -> m "%s draining: %d worker domain(s)" t.name t.config.domains);
  Atomic.set t.draining true;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (* Sentinels queue behind any accepted-but-unserved connections, so
     those are served before the workers exit. *)
  Array.iter (fun _ -> Q.push t.queue None) t.workers;
  Array.iter (fun ws -> Domain.join ws.domain) t.workers;
  Log.info (fun m -> m "%s drained" t.name)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start t ?(tick = ignore) ~on_bad_request handle =
  (* SIGPIPE must die before the first write to a vanished client. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd
       (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.config.port));
     Unix.listen lfd t.config.backlog;
     match Unix.getsockname lfd with
     | Unix.ADDR_INET (_, p) -> t.port <- p
     | Unix.ADDR_UNIX _ -> assert false
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  let spawn i dead = Domain.spawn (worker t handle ~on_bad_request i dead) in
  t.workers <-
    Array.init t.config.domains (fun i ->
        let dead = Atomic.make false in
        { domain = spawn i dead; dead });
  t.acceptor <- Some (Domain.spawn (accept_loop t lfd ~tick spawn))

let join t =
  match t.acceptor with
  | None -> ()
  | Some d ->
    t.acceptor <- None;
    Domain.join d
