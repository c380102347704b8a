(* Log-spaced bucketed histograms (HDR-style).

   Every histogram in the process shares one fixed bucket layout, which
   is what keeps merging trivial and order-blind: pooling two histograms
   is element-wise addition of their bucket arrays plus count/sum
   addition and min/max widening — commutative and associative, so the
   traffic driver can fold its clients' histograms in any order.

   Layout: [buckets_per_decade] log-spaced buckets per decade between
   10^lo_exp and 10^hi_exp, plus an underflow bucket (index 0, catching
   zero and sub-range values) and an overflow bucket (last index).  With
   8 buckets per decade the bucket-boundary ratio is 10^(1/8) ~ 1.33, so
   a quantile estimate is off by at most one bucket width (~15% relative
   error) — ample for latency percentiles; exact min/max are tracked
   separately and clamp the estimate. *)

let buckets_per_decade = 8
let lo_exp = -3 (* 1 microsecond, in milliseconds *)
let hi_exp = 7 (* ~2.8 hours, in milliseconds *)
let decades = hi_exp - lo_exp
let n_buckets = (decades * buckets_per_decade) + 2

let lo_bound = 10.0 ** float_of_int lo_exp

(* Bucket index of a value.  Negative and sub-range values land in the
   underflow bucket; NaN is treated as 0 (observing NaN is a caller bug
   but must not corrupt the array). *)
let bucket_of v =
  if not (v > lo_bound) (* catches v <= lo_bound and NaN *) then 0
  else
    let slot =
      int_of_float
        (Float.floor
           ((Float.log10 v -. float_of_int lo_exp)
           *. float_of_int buckets_per_decade))
    in
    (* log10 rounding can land exactly on a boundary; clamp into the
       scaled range, with the last slot reserved for overflow. *)
    if slot < 0 then 0
    else if slot >= decades * buckets_per_decade then n_buckets - 1
    else slot + 1

(* Lower and upper value bounds of bucket [i], used for interpolation.
   The underflow bucket spans [0, lo); the overflow bucket has no upper
   bound — callers clamp with the tracked max. *)
let bucket_bounds i =
  let edge k =
    10.0
    ** (float_of_int lo_exp
       +. (float_of_int k /. float_of_int buckets_per_decade))
  in
  if i <= 0 then (0.0, lo_bound)
  else if i >= n_buckets - 1 then (edge (decades * buckets_per_decade), infinity)
  else (edge (i - 1), edge i)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  counts : int array;
}

let create () =
  {
    count = 0;
    sum = 0.0;
    min = infinity;
    max = neg_infinity;
    counts = Array.make n_buckets 0;
  }

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min then h.min <- v;
  if v > h.max then h.max <- v;
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1

let reset h =
  h.count <- 0;
  h.sum <- 0.0;
  h.min <- infinity;
  h.max <- neg_infinity;
  Array.fill h.counts 0 n_buckets 0

let merge ~into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min < into.min then into.min <- src.min;
  if src.max > into.max then into.max <- src.max;
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts

let count h = h.count
let sum h = h.sum
let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count
let min_value h = if h.count = 0 then 0.0 else h.min
let max_value h = if h.count = 0 then 0.0 else h.max

(* Quantile estimation over any bucket array with its pooled summary —
   the same code serves live histograms and Metrics snapshot data.
   The target rank q*(count-1) is located by a cumulative walk; the
   estimate interpolates linearly inside the holding bucket and is
   clamped into [min, max], so every quantile of a non-empty histogram
   is bounded by its recorded extremes and q -> quantile q is monotone.
   An empty histogram answers 0.0 — never NaN. *)
let quantile_of ~count ~min:mn ~max:mx ~counts q =
  if count <= 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int (count - 1) in
    let rec locate i cum =
      if i >= Array.length counts then Array.length counts - 1
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' > rank then i else locate (i + 1) cum'
    in
    let rec cum_before i acc k =
      if k >= i then acc else cum_before i (acc + counts.(k)) (k + 1)
    in
    let i = locate 0 0 in
    let lob, hib = bucket_bounds i in
    let lob = Float.max lob mn and hib = Float.min hib mx in
    let inside = counts.(i) in
    let before = cum_before i 0 0 in
    let frac =
      if inside <= 1 then 0.5
      else (rank -. float_of_int before) /. float_of_int (inside - 1)
    in
    let v = lob +. (frac *. (hib -. lob)) in
    Float.max mn (Float.min mx v)
  end

let quantile h q =
  quantile_of ~count:h.count ~min:(min_value h) ~max:(max_value h)
    ~counts:h.counts q

let to_json h =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("min", Json.Float (min_value h));
      ("max", Json.Float (max_value h));
      ("mean", Json.Float (mean h));
      ("p50", Json.Float (quantile h 0.5));
      ("p95", Json.Float (quantile h 0.95));
      ("p99", Json.Float (quantile h 0.99));
    ]

let pp ppf h =
  Fmt.pf ppf "count %d, mean %.3f, p50 %.3f, p95 %.3f, p99 %.3f, max %.3f"
    h.count (mean h) (quantile h 0.5) (quantile h 0.95) (quantile h 0.99)
    (max_value h)
