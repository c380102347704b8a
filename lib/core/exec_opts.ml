(* The knobs of one query execution, gathered into a single record so
   call sites name the fields they set and new knobs do not ripple
   through every signature as extra optional labels. *)

type t = {
  strategy : Strategy.t;
  join_order : Combination.join_order;
  batch_size : int;
  use_index : bool;
  force_join : Cost.join_algo option;
}

(* Secondary-index access paths are on unless PASCALR_NO_INDEX is set
   to something truthy — the forced-heap-scan CI leg and the
   differential oracle both run under PASCALR_NO_INDEX=1. *)
let default_use_index =
  match Sys.getenv_opt "PASCALR_NO_INDEX" with
  | Some ("" | "0") | None -> true
  | Some _ -> false

(* Default window size of the vectorized stream kernels.  Big enough to
   amortize the per-batch dispatch, small enough that the gather buffers
   of a join stay cache-resident.  [1] disables batching: the scalar
   emit is the differential oracle the batched path is tested against. *)
let default_batch_size =
  match Sys.getenv_opt "PASCALR_BATCH_SIZE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 2048)
  | None -> 2048

let default =
  {
    strategy = Strategy.full;
    join_order = Combination.Cost_ordered;
    batch_size = default_batch_size;
    use_index = default_use_index;
    force_join = None;
  }

let make ?(strategy = Strategy.full) ?(join_order = Combination.Cost_ordered)
    ?(batch_size = default_batch_size) ?(use_index = default_use_index)
    ?force_join () =
  { strategy; join_order; batch_size = max 1 batch_size; use_index; force_join }

let join_order_to_string = function
  | Combination.Cost_ordered -> "ordered"
  | Combination.Declaration -> "declaration"

let join_order_of_string = function
  | "ordered" -> Some Combination.Cost_ordered
  | "declaration" -> Some Combination.Declaration
  | _ -> None

(* Injective over the record: each strategy flag has its own token in
   Strategy.to_string, the join order follows after '/', then the batch
   size.  The fingerprint is part of every plan-cache key, so plans
   prepared under different execution settings never collide in the
   cache.  The physical-choice overrides append tokens only when set off
   their defaults (no index / forced join algorithm), keeping default
   fingerprints stable across versions while still separating
   overridden plans in the cache. *)
let fingerprint t =
  Fmt.str "%s/%s/b%d%s%s"
    (Strategy.to_string t.strategy)
    (join_order_to_string t.join_order)
    t.batch_size
    (if t.use_index then "" else "/ix0")
    (match t.force_join with
    | None -> ""
    | Some a -> "/fj:" ^ Cost.join_algo_to_string a)

let pp ppf t = Fmt.string ppf (fingerprint t)
