(** A process-wide registry of named measurement instruments.

    The engine's cost story (paper Sections 3–4) is told through a
    handful of numbers — relation scans, key probes, index work, tuples
    materialized, buffer-pool traffic, n-tuple growth.  Each
    instrumentation site bumps a named instrument here; consumers take
    {!snapshot}s and {!diff} them to attribute activity to a window
    (typically a trace span — see {!Trace}).

    Three instrument kinds:
    - counters: monotonically increasing ints ({!incr});
    - gauges: last-written floats, with a high-water variant
      ({!set_gauge}, {!gauge_max});
    - histograms: count/sum/min/max summaries plus log-spaced
      {!Histogram} buckets, so quantiles survive snapshotting
      ({!observe}).

    The registry is per-domain (domain-local storage) and not
    thread-safe within a domain — the engine proper runs on the main
    domain, and one ambient registry is what lets deep layers (the
    storage substrate) report without plumbing a handle through every
    signature.  Every other domain that runs queries (traffic-driver
    clients, server connections) writes to its own private registry. *)

type datum =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : int array;
          (** per-bucket observation counts in the shared
              {!Histogram} log-spaced layout *)
    }

type snapshot = (string * datum) list
(** Immutable copy of the registry, sorted by instrument name. *)

val incr : ?by:int -> string -> unit
(** Add to a counter, creating it at zero first if needed. *)

val set_gauge : string -> float -> unit
val gauge_max : string -> float -> unit
(** [gauge_max n v] raises gauge [n] to [v] if [v] is larger (or the
    gauge is new) — a high-water mark. *)

val observe : string -> float -> unit
(** Add one observation to a histogram. *)

val counter_value : string -> int
(** Current value; 0 for an absent or non-counter instrument. *)

val snapshot : unit -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Activity between two snapshots: counters and histogram count/sum
    subtract; histogram min/max are taken from [after]; gauges keep
    their [after] value and appear only if they changed (or are new).
    Instruments with no activity in the window are dropped. *)

val find : snapshot -> string -> datum option
val get_counter : snapshot -> string -> int
(** 0 when absent or not a counter. *)

val get_gauge : snapshot -> string -> float option

val histogram_quantile : snapshot -> string -> float -> float option
(** Estimated quantile of a histogram instrument's bucketed
    observations, clamped to its recorded min/max; [None] when the
    instrument is absent, not a histogram, or empty. *)

val to_json : snapshot -> Json.t
(** Object keyed by instrument name; counters and gauges as numbers,
    histograms as [{count, sum, min, max, p50, p95, p99}] objects. *)

val reset : unit -> unit
(** Drop every instrument.  Tests and one-shot CLI runs use this; the
    {!diff} discipline makes it unnecessary for correctness. *)

val pp : snapshot Fmt.t
val pp_datum : datum Fmt.t
