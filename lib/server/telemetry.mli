(** Serving metrics: lock-free per-domain counters, merged at scrape.

    Every worker domain owns one {!slot} and is the only writer to it, so
    recording a request is a handful of uncontended atomic stores — no
    lock, no shared cache line ping-pong on the hot path. A scrape
    ([/metrics]) walks all slots and sums, which is the only cross-domain
    read; slightly stale per-slot values are acceptable there by design.

    Rendered in the Prometheus text exposition format (version 0.0.4). *)

type t

(** One worker domain's private counter block. *)
type slot

type endpoint =
  | Predict
  | Healthz
  | Model_info
  | Metrics
  | Admin  (** the /admin/rollout and /admin/rollback endpoints *)
  | Feedback  (** the /feedback labeled-stream endpoint *)
  | Other  (** unknown paths, unparsable requests *)

(** [create ~slots] preallocates [slots] counter blocks (one per worker
    domain). *)
val create : slots:int -> t

(** [slot t i] is worker [i]'s block ([0 <= i < slots]). *)
val slot : t -> int -> slot

(** Histogram bucket upper bounds, in seconds. *)
val buckets : float array

(** [observe slot ep ~status ~seconds] records one finished request:
    bumps the request counter, the error counter when [status >= 400],
    and the latency histogram of [ep]. *)
val observe : slot -> endpoint -> status:int -> seconds:float -> unit

(** [add_rows slot ~rows_in ~rows_out] accounts one predict body:
    [rows_in] data rows decoded (kept or skipped), [rows_out] prediction
    lines written. *)
val add_rows : slot -> rows_in:int -> rows_out:int -> unit

(** [add_retries slot n] accounts [n] transient IO errors that were
    retried (stream refills and response writes) — exported as
    [pnrule_io_retries_total]. *)
val add_retries : slot -> int -> unit

(** [render t ~in_flight ~extra] merges all slots and renders the
    exposition text; [in_flight] is the listener's in-flight request
    count, exported as [pnrule_in_flight]. [extra] may append additional,
    caller-owned metric lines (the server adds model generation / reload
    counters). *)
val render : t -> in_flight:int -> extra:(Buffer.t -> unit) -> string
