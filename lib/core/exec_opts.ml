(* The knobs of one query execution, gathered into a single record so
   call sites name the fields they set and new knobs do not ripple
   through every signature as extra optional labels. *)

type t = {
  strategy : Strategy.t;
  join_order : Combination.join_order;
  use_index : bool;
}

(* Secondary-index access paths are on unless PASCALR_NO_INDEX is set
   to something truthy — the forced-heap-scan CI leg and the
   differential oracle both run under PASCALR_NO_INDEX=1. *)
let default_use_index =
  match Sys.getenv_opt "PASCALR_NO_INDEX" with
  | Some ("" | "0") | None -> true
  | Some _ -> false

let default =
  {
    strategy = Strategy.full;
    join_order = Combination.Cost_ordered;
    use_index = default_use_index;
  }

let make ?(strategy = Strategy.full) ?(join_order = Combination.Cost_ordered)
    ?(use_index = default_use_index) () =
  { strategy; join_order; use_index }

let join_order_to_string = function
  | Combination.Cost_ordered -> "ordered"
  | Combination.Declaration -> "declaration"

let join_order_of_string = function
  | "ordered" -> Some Combination.Cost_ordered
  | "declaration" -> Some Combination.Declaration
  | _ -> None

(* Injective over the record: each strategy flag has its own token in
   Strategy.to_string, the join order follows after '/', and a disabled
   index appends "/ix0" (only off its default, keeping default
   fingerprints stable across versions).  The fingerprint is part of
   every plan-cache key, so plans prepared under different execution
   settings never collide in the cache. *)
let fingerprint t =
  Fmt.str "%s/%s%s"
    (Strategy.to_string t.strategy)
    (join_order_to_string t.join_order)
    (if t.use_index then "" else "/ix0")

let pp ppf t = Fmt.string ppf (fingerprint t)
