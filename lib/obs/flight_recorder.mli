(** Always-on flight recorder for query executions.

    A bounded ring buffer of fixed-shape per-execution records — digest,
    exec-options fingerprint, wall and per-phase milliseconds, result
    rows, and the top storage counters for that execution.
    Recording is one array store behind a mutex, cheap enough to leave
    on permanently; when the ring fills, the oldest record is
    overwritten and {!dropped} counts what fell off.

    Slow-query capture piggybacks on the ring's digests: set a
    threshold with {!set_slow_ms}, call {!note_slow} after every
    execution, and when an execution crosses the threshold its digest
    becomes {!armed}.  The caller runs the next execution of an armed
    digest under {!Trace.collect} and hands the finished span to
    {!capture}, which stores it (latest wins) and disarms — so the
    expensive full trace is taken exactly once per offending query and
    never on the in-band execution that was already slow. *)

type record = {
  fr_digest : string;
  fr_opts : string;  (** exec-options fingerprint *)
  fr_wall_ms : float;
  fr_collection_ms : float;
  fr_combination_ms : float;
  fr_construction_ms : float;
  fr_rows : int;
  fr_scans : int;  (** [relation.scans] delta over the execution *)
  fr_probes : int;  (** [relation.probes] delta *)
  fr_index_probes : int;  (** [index.probes] delta *)
  fr_pool_fetches : int;  (** [pool.fetches] delta *)
}

val capacity : unit -> int
val set_capacity : int -> unit
(** Replace the ring with an empty one of the given size (resets
    counts).  Raises [Invalid_argument] on a non-positive size. *)

val record : record -> unit
val total_recorded : unit -> int
(** Records ever written, including overwritten ones. *)

val dropped : unit -> int
(** Records lost to ring wrap-around. *)

val recent : ?n:int -> unit -> record list
(** Up to [n] (default: all retained) records, newest first. *)

val set_slow_ms : float option -> unit
(** Arm the slow-query machinery at the given wall-ms threshold, or
    disarm it with [None]. *)

val slow_ms : unit -> float option

val note_slow : string -> float -> unit
(** [note_slow digest wall_ms] arms [digest] for capture if a threshold
    is set and [wall_ms] crosses it. *)

val armed : string -> bool
(** Should the next execution of this digest run under a full trace? *)

val capture : string -> Trace.span -> unit
(** Store the captured span for the digest (latest wins) and disarm
    it. *)

val slow_traces : unit -> (string * Trace.span) list
(** Captured slow-query traces, sorted by digest. *)

val reset : unit -> unit
(** Empty the ring and forget armed digests and captured traces; the
    capacity and slow threshold survive. *)

val record_to_json : record -> Json.t
val to_json : ?n:int -> unit -> Json.t
(** [{capacity, recorded, total, dropped, slow_ms, recent}] with
    [recent] newest first (at most [n] records when given). *)

val pp_record : record Fmt.t
