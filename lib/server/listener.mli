(** The serving core shared by the prediction daemon ({!Server}) and the
    shard router: one accepting domain feeding a fixed pool of worker
    domains over a blocking queue. The owner plugs in one per-request
    handler; everything else — bind/listen, admission, supervision, the
    keep-alive loop and the drain — lives here once.

    - {b Admission.} Every accepted connection is checked against
      [queue_limit] (in-flight requests plus accepted-but-unserved
      connections) and refused with a canned [429] + [Retry-After] when
      the process is saturated: accepted work is never dropped, new work
      is shed at accept speed.
    - {b Supervision.} A worker domain that dies on an escaped exception
      flags itself; the accept loop joins the corpse and respawns a
      fresh domain into the same slot (same [index]) within ~50 ms.
    - {b Connections.} Each worker reads one request at a time off its
      connection: a malformed head is answered [400] and closed, a
      vanished or stalled peer is closed. A handler exception closes the
      connection and keeps the worker, except an injected
      [Pn_util.Fault.Injected], which is re-raised to kill the worker.
    - {b Keep-alive.} A connection serves another request only when the
      client asked for it, no drain has begun, the handler answered
      [`Keep], and the request body was fully read
      ({!Http.body_consumed}).
    - {b Drain.} {!request_stop} makes the accept loop stop accepting,
      raise {!draining} (idle keep-alive waits wake and close), queue one
      shutdown sentinel per worker behind the connections already
      accepted, and join the workers. The owner runs its own post-drain
      step after {!join} returns. *)

type config = {
  host : string;  (** bind address *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  domains : int;  (** worker domains, 1..64 *)
  backlog : int;  (** kernel [listen(2)] backlog, 1..65535 *)
  idle_timeout : float;
      (** seconds a keep-alive connection may sit idle; also the
          per-read stall timeout inside a request *)
  queue_limit : int;  (** admission bound on in-flight plus queued work *)
}

(** [handle ~index ~keep conn req] answers one parsed request. [index]
    is the worker's slot (0..domains-1); [keep] is whether a keep-alive
    response may be offered. The result says whether the handler is
    willing to serve another request on [conn]. *)
type handler =
  index:int -> keep:bool -> Http.conn -> Http.request -> [ `Keep | `Close ]

type t

(** [create ~name config] validates [config] and makes the counters;
    nothing is bound yet. [name] prefixes the [Invalid_argument]
    messages (["<name>.start: ..."]) and the log lines. *)
val create : name:string -> config -> t

(** [start t ?tick ~on_bad_request handle] binds and listens, spawns the
    workers and the accept loop, and returns. [tick] runs on the accept
    domain roughly every 50 ms (the daemon performs SIGHUP reloads
    there); [on_bad_request ~index] counts a [400] the listener answered
    for an unparsable head. Raises [Unix.Unix_error] if the bind fails
    (the socket is closed). SIGPIPE is ignored for the whole process. *)
val start :
  t -> ?tick:(unit -> unit) -> on_bad_request:(index:int -> unit) -> handler -> unit

(** The bound port (after {!start}). *)
val port : t -> int

val domains : t -> int
val queue_limit : t -> int

(** True once the drain has begun. *)
val draining : t -> bool

(** Connections accepted but not yet picked up by a worker. *)
val queued : t -> int

(** Requests being handled right now. *)
val in_flight : t -> int

(** Connections accepted so far. *)
val connections : t -> int

(** Connections refused by admission control ([429]). *)
val shed : t -> int

(** Worker domains respawned after dying. *)
val restarts : t -> int

(** Begin the graceful drain within ~50 ms. Signal-safe. *)
val request_stop : t -> unit

(** Block until the drain completes and every worker is joined.
    Idempotent. *)
val join : t -> unit
