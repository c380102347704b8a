(** Log-spaced bucketed histograms (HDR-style).

    One fixed process-wide bucket layout — [buckets_per_decade]
    log-spaced buckets per decade over [10^lo, 10^hi) plus underflow
    and overflow buckets — so pooling two histograms is element-wise
    bucket addition: commutative and associative, the property the
    traffic driver's per-client merge relies on.

    Quantiles are estimated by a cumulative walk with linear
    interpolation inside the holding bucket, clamped to the recorded
    [min, max]; estimates are monotone in [q] and an empty histogram
    answers 0.0 (never NaN). *)

val n_buckets : int
(** Length of every bucket array. *)

val bucket_of : float -> int
(** Bucket index of a value; negatives and NaN land in bucket 0. *)

val bucket_bounds : int -> float * float
(** [(lower, upper)] value bounds of a bucket; bucket 0 spans
    [[0, 10^lo)], the last bucket has upper bound [infinity]. *)

type t

val create : unit -> t
val observe : t -> float -> unit
val reset : t -> unit

val merge : into:t -> t -> unit
(** Pool [src] into [into]: counts and buckets add, min/max widen. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0.0 when empty. *)

val min_value : t -> float
val max_value : t -> float
(** 0.0 when empty (never infinities). *)

val quantile : t -> float -> float
(** [quantile h q] for [q] in [0, 1] (clamped); 0.0 when empty. *)

val quantile_of :
  count:int -> min:float -> max:float -> counts:int array -> float -> float
(** Quantile over raw bucket data — serves {!Metrics} snapshot
    histograms without copying them into a {!t}. *)

val to_json : t -> Json.t
(** [{count, sum, min, max, mean, p50, p95, p99}]. *)

val pp : t Fmt.t
