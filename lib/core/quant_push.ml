(* Strategy 4: quantifier evaluation in the collection phase (paper
   Section 4.4).

   The rightmost prefix variable vn can leave the combination phase when
   (a) it can be moved to the innermost position by quantifier swapping —
   adjacent quantifiers swap when they are equal, or when their
   variables share no conjunction (the Lemma-1 based swaps); and
   (b) its quantified sub-formula involves only one other variable vm:
   within each conjunction mentioning vn there is exactly one dyadic
   join term (over vn and vm) plus monadic terms over vn.  For a
   universally quantified vn, splitting additionally requires vn to
   occur in no more than one conjunction (Lemma 1, rule 3; the range
   must be non-empty, which the adaptation pass guarantees) — after the
   conjunctions that are single derived predicates over vn have been
   absorbed into vn's range (see [absorb]).

   The push replaces vn's join terms by a DERIVED PREDICATE on vm,
   evaluated in the collection phase against a value list of vn's
   component (module {!Relalg.Value_list}), with the paper's min/max and
   at-most-one-value storage reductions chosen per operator. *)

open Relalg
open Calculus

(* Do two variables co-occur in some conjunction? *)
let share_conjunction (plan : Plan.t) v w =
  List.exists
    (fun c ->
      let vars = Plan.conj_vars c in
      Var_set.mem v vars && Var_set.mem w vars)
    plan.Plan.conjs

(* Can [vn] be moved to the innermost (rightmost) prefix position?
   Every variable to its right must either carry the same quantifier or
   be independent of it. *)
let movable_to_rightmost (plan : Plan.t) prefix vn_entry =
  let rec right_of = function
    | [] -> []
    | (e : Normalize.prefix_entry) :: rest ->
      if String.equal e.Normalize.v vn_entry.Normalize.v then rest
      else right_of rest
  in
  List.for_all
    (fun (w : Normalize.prefix_entry) ->
      w.Normalize.q = vn_entry.Normalize.q
      || not (share_conjunction plan vn_entry.Normalize.v w.Normalize.v))
    (right_of prefix)

(* Orient a dyadic atom as (vm.outer_attr op vn.inner_attr). *)
let orient_dyadic vn (a : atom) =
  match a.lhs, a.rhs with
  | O_attr (v1, a1), O_attr (v2, a2) ->
    if String.equal v2 vn then Some (v1, a1, a.op, a2)
    else if String.equal v1 vn then Some (v2, a2, Value.flip_comparison a.op, a1)
    else None
  | (O_attr _ | O_const _ | O_param _), _ -> None

type push_piece = {
  pc_conj : Plan.conj;  (* the conjunction being rewritten *)
  pc_vm : var;
  pc_pushed : Plan.pushed;
}

(* Negation of a derived predicate whose quantified sub-formula is the
   join term alone: NOT (Q x IN r (o op x.a)) = Q' x IN r (o op' x.a)
   with Q' the dual quantifier and op' the negated operator.  Exact over
   an empty r too (SOME is false there, ALL true), and a filter is part
   of r, so it carries over unchanged. *)
let negate_pushed (p : Plan.pushed) =
  match p.Plan.p_monadic, p.Plan.p_nested with
  | [], [] ->
    Some
      {
        p with
        Plan.p_quant =
          (match p.Plan.p_quant with
          | Normalize.Q_some -> Normalize.Q_all
          | Normalize.Q_all -> Normalize.Q_some);
        p_op = Value.negate_comparison p.Plan.p_op;
      }
  | _ -> None

let rec pushed_has_params (p : Plan.pushed) =
  Range_ext.range_has_params p.Plan.p_range
  || List.exists pushed_has_params p.Plan.p_filter

(* S3's ALL identity, applied after earlier pushes:
     ALL v IN rel (NOT S(v) OR W) = ALL v IN [EACH v IN rel: S(v)] (W).
   Among the conjunctions mentioning an ALL variable vn, each one that
   holds no atoms and a single derived predicate D over vn is a
   disjunct NOT S(vn) with S = NOT D, exact by [negate_pushed].  When
   exactly one conjunction is left (the kept one), the others leave the
   matrix and their negations filter vn's range; vn then splits from
   the kept conjunction as usual.

   The filtered range may be empty, where ALL is true.  The pushed
   predicate is then true as well, so the rewrite stays exact as long as
   nothing is pulled out of the quantifier: every atom of the kept
   conjunction must mention vn and every derived predicate of it must
   be over vn.  Ranges carrying a $param are skipped (as strategy 3
   skips them): their emptiness is unknown until execution.  Returns
   the kept conjunction, the absorbed ones and the filter. *)
let absorb vn (entry : Normalize.prefix_entry) conjs =
  let negation (c : Plan.conj) =
    match c.Plan.atoms, c.Plan.derived with
    | [], [ (w, p) ] when String.equal w vn -> negate_pushed p
    | _ -> None
  in
  let negs = List.map (fun c -> (c, negation c)) conjs in
  match List.filter (fun (_, n) -> Option.is_none n) negs with
  | [ (kept, _) ]
    when List.for_all (fun a -> Var_set.mem vn (atom_vars a)) kept.Plan.atoms
         && List.for_all (fun (w, _) -> String.equal w vn) kept.Plan.derived ->
    let absorbed =
      List.filter_map (fun (c, n) -> Option.map (fun f -> (c, f)) n) negs
    in
    let filter = List.map snd absorbed in
    if
      Range_ext.range_has_params entry.Normalize.range
      || List.exists pushed_has_params filter
    then None
    else Some (kept, List.map fst absorbed, filter)
  | _ -> None

(* Try to build the push pieces for [vn], with the conjunctions absorbed
   into its range; None if some conjunction mentioning it does not have
   the required shape. *)
let push_pieces (plan : Plan.t) (entry : Normalize.prefix_entry) =
  let vn = entry.Normalize.v in
  let conjs_with_vn =
    List.filter (fun c -> Var_set.mem vn (Plan.conj_vars c)) plan.Plan.conjs
  in
  let split =
    match entry.Normalize.q, conjs_with_vn with
    | _, [] -> None
    | Normalize.Q_all, _ :: _ :: _ ->
      (* Lemma 1: an ALL variable splits only from one conjunction *)
      Option.map
        (fun (kept, absorbed, filter) -> ([ kept ], absorbed, filter))
        (absorb vn entry conjs_with_vn)
    | (Normalize.Q_all | Normalize.Q_some), _ -> Some (conjs_with_vn, [], [])
  in
  match split with
  | None -> None
  | Some (conjs, absorbed, filter) ->
    let piece (c : Plan.conj) =
      let monadic = Plan.monadic_over vn c.Plan.atoms in
      let dyadic = Plan.dyadic_over vn c.Plan.atoms in
      let nested =
        List.filter_map
          (fun (v, p) -> if String.equal v vn then Some p else None)
          c.Plan.derived
      in
      match dyadic with
      | [ d ] -> (
        match orient_dyadic vn d with
        | Some (vm, outer_attr, op, inner_attr) ->
          Some
            {
              pc_conj = c;
              pc_vm = vm;
              pc_pushed =
                {
                  Plan.p_quant = entry.Normalize.q;
                  p_var = vn;
                  p_range = entry.Normalize.range;
                  p_op = op;
                  p_outer_attr = outer_attr;
                  p_inner_attr = inner_attr;
                  p_monadic = monadic;
                  p_nested = nested;
                  p_filter = filter;
                };
            }
        | None -> None)
      | [] | _ :: _ -> None
    in
    let pieces = List.map piece conjs in
    if List.for_all Option.is_some pieces then
      Some (absorbed, List.filter_map Fun.id pieces)
    else None

let same_conj (a : Plan.conj) (b : Plan.conj) =
  Normalize.conj_equal a.Plan.atoms b.Plan.atoms
  && List.length a.Plan.derived = List.length b.Plan.derived
  && List.for_all2
       (fun x y -> String.equal (Plan.derived_id x) (Plan.derived_id y))
       a.Plan.derived b.Plan.derived

(* Apply one push: drop the absorbed conjunctions, rewrite the others
   and drop vn from the prefix. *)
let apply_push (plan : Plan.t) (entry : Normalize.prefix_entry)
    (absorbed, pieces) =
  let vn = entry.Normalize.v in
  let rewrite (c : Plan.conj) =
    match List.find_opt (fun pc -> same_conj pc.pc_conj c) pieces with
    | None -> c
    | Some pc ->
      let keep_atom a = not (Var_set.mem vn (atom_vars a)) in
      {
        Plan.atoms = List.filter keep_atom c.Plan.atoms;
        derived =
          List.filter (fun (v, _) -> not (String.equal v vn)) c.Plan.derived
          @ [ (pc.pc_vm, pc.pc_pushed) ];
      }
  in
  {
    plan with
    Plan.conjs =
      List.filter_map
        (fun c ->
          if List.exists (same_conj c) absorbed then None else Some (rewrite c))
        plan.Plan.conjs;
    prefix =
      List.filter
        (fun (e : Normalize.prefix_entry) -> not (String.equal e.Normalize.v vn))
        plan.Plan.prefix;
  }

(* Push until fixpoint, scanning the prefix right to left so inner
   quantifiers leave first (Example 4.7 pushes c, then t, then p). *)
let apply _db (plan : Plan.t) =
  let rec loop plan =
    let candidates = List.rev plan.Plan.prefix in
    let rec try_candidates = function
      | [] -> plan
      | entry :: rest ->
        if movable_to_rightmost plan plan.Plan.prefix entry then (
          match push_pieces plan entry with
          | Some push -> loop (apply_push plan entry push)
          | None -> try_candidates rest)
        else try_candidates rest
    in
    try_candidates candidates
  in
  loop plan

(* ALL variables pushed with a range filter, in plan order. *)
let absorbed_vars (plan : Plan.t) =
  let rec of_pushed acc (p : Plan.pushed) =
    let acc = List.fold_left of_pushed acc (p.Plan.p_filter @ p.Plan.p_nested) in
    if p.Plan.p_filter <> [] && not (List.mem p.Plan.p_var acc) then
      acc @ [ p.Plan.p_var ]
    else acc
  in
  List.fold_left
    (fun acc (c : Plan.conj) ->
      List.fold_left (fun acc (_, p) -> of_pushed acc p) acc c.Plan.derived)
    [] plan.Plan.conjs
