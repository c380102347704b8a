(* The COMBINATION PHASE (paper Section 3.3): manipulate only reference
   relations; evaluate logical operators and quantifiers in three steps:

   1. each conjunction is combined from its single lists and indirect
      joins into n-tuples of references (joins and Cartesian products);
   2. the full disjunctive form is evaluated by a union of those
      n-tuple relations;
   3. quantifiers are evaluated from right to left — projection for
      existential quantification, division for universal quantification
      (Codd / Palermo).

   Two engines implement the phase:

   - [Declaration]: the paper's literal reading — pad every conjunction
     with base single lists up to the full variable order, union, then
     eliminate the prefix over the padded n-tuple relation.  Kept as
     the comparison baseline (B-ORDER) and differential-test oracle.

   - [Cost_ordered] (default): a streaming engine that joins each
     conjunction's components in greedy cost order (true cardinalities
     are available — the inputs are materialized), projects
     existentially quantified variables away eagerly inside the
     combine, and eliminates the prefix DISJUNCT-WISE, never
     materializing the full padded union:

       ∃v:  projection distributes over union, so project [v] out of
            exactly the disjuncts that carry it; a disjunct without [v]
            is untouched (∃v P ≡ P over a non-empty range).
       ∀v:  ∀v (P ∨ Q(v)) ≡ P ∨ ∀v Q(v) for a non-empty range, so only
            the disjuncts carrying [v] are padded to their common
            column set, unioned, and divided; the rest pass through.

     Both identities need non-empty prefix ranges, which
     {!Standard_form.adapt_query} guarantees (empty-range quantifiers
     are rewritten away before planning).  Free-variable padding
     happens last, just before the final union, so a variable that is
     only padded and then projected away is never joined at all.
     max_ntuple is thereby bounded by the live-variable frontier
     rather than the full prefix width. *)

open Relalg
open Calculus

type join_order = Cost_ordered | Declaration

let columns rel = Schema.names (Relation.schema rel)

let rel_of = function
  | Collection.C_single (_, r) -> r
  | Collection.C_pair (_, _, r) -> r

let has_col rel v = Schema.mem (Relation.schema rel) v

(* Schema of the n-tuple reference relations over [order]. *)
let ntuple_schema (plan : Plan.t) order =
  Schema.make
    (List.map
       (fun v ->
         match Plan.range_of plan v with
         | Some r -> Schema.attr v (Vtype.reference r.range_rel)
         | None -> invalid_arg "Combination: variable without range")
       order)
    ~key:[]

(* ------------------------------------------------------------------ *)
(* Declaration-order engine (the paper's baseline).                    *)
(* ------------------------------------------------------------------ *)

(* Join two reference relations on their shared variable columns
   (natural join); disjoint column sets degrade to a Cartesian
   product. *)
let combine a b = Algebra.natural_join ~name:"refrel" a b

(* Combine the components of one conjunction, greedily preferring
   components that share a variable with the accumulated result so that
   products are only used when the conjunction is genuinely
   disconnected. *)
let combine_conjunction components =
  let shares acc_cols comp_cols =
    List.exists (fun c -> List.mem c acc_cols) comp_cols
  in
  let rec go acc remaining =
    match remaining with
    | [] -> acc
    | _ ->
      let acc_cols = columns acc in
      let connected, rest =
        List.partition (fun c -> shares acc_cols (columns (rel_of c))) remaining
      in
      (match connected with
      | c :: others -> go (combine acc (rel_of c)) (others @ rest)
      | [] -> (
        match rest with
        | c :: others -> go (combine acc (rel_of c)) others
        | [] -> acc))
  in
  match components with
  | [] -> None
  | c :: rest -> Some (go (rel_of c) rest)

(* Pad a combined relation with the base single lists of the variables
   it does not cover, producing an n-tuple relation over [order]. *)
let pad coll order rel_opt =
  let covered = match rel_opt with None -> [] | Some r -> columns r in
  let missing = List.filter (fun v -> not (List.mem v covered)) order in
  let padded =
    List.fold_left
      (fun acc v ->
        let bl = Collection.base_list coll v in
        match acc with None -> Some bl | Some r -> Some (combine r bl))
      rel_opt missing
  in
  match padded with
  | None -> invalid_arg "Combination.pad: no variables"
  | Some r -> Algebra.project ~name:"refrel" r order

(* Eliminate the quantifier prefix right to left over an n-tuple
   relation: projection for SOME, division by the variable's base single
   list for ALL.  Precondition (established by the adaptation pass): all
   prefix ranges are non-empty. *)
let eliminate_quantifiers coll (plan : Plan.t) rel =
  List.fold_left
    (fun acc (e : Normalize.prefix_entry) ->
      let v = e.Normalize.v in
      let remaining = List.filter (fun c -> not (String.equal c v)) (columns acc) in
      Obs.Trace.with_span
        (Fmt.str "eliminate %s %s" (Normalize.quant_to_string e.Normalize.q) v)
        (fun () ->
          let reduced =
            match e.Normalize.q with
            | Normalize.Q_some -> Algebra.project ~name:"refrel" acc remaining
            | Normalize.Q_all ->
              let divisor = Collection.base_list coll v in
              Algebra.divide ~name:"refrel" ~on:[ (v, v) ] acc divisor
          in
          Obs.Trace.add_attr "ntuples"
            (Obs.Json.Int (Relation.cardinality reduced));
          reduced))
    rel
    (List.rev plan.Plan.prefix)

let evaluate_declaration coll (plan : Plan.t) grow =
  let order = Plan.variable_order plan in
  let free_names = List.map fst plan.Plan.free in
  let conj_rels =
    List.mapi
      (fun i conj ->
        Obs.Trace.with_span (Fmt.str "conjunction %d" i) (fun () ->
            let components = Collection.components coll conj in
            let r = pad coll order (combine_conjunction components) in
            grow (Relation.cardinality r);
            Obs.Trace.add_attr "ntuples"
              (Obs.Json.Int (Relation.cardinality r));
            r))
      plan.Plan.conjs
  in
  let unioned =
    match conj_rels with
    | [] -> Relation.create ~name:"refrel" (ntuple_schema plan order)
    | [ r ] -> r
    | r :: _ ->
      Obs.Trace.with_span "union" (fun () ->
          Algebra.union_all ~name:"refrel" (Relation.schema r) conj_rels)
  in
  grow (Relation.cardinality unioned);
  let reduced = eliminate_quantifiers coll plan unioned in
  Algebra.project ~name:"refrel" reduced free_names

(* ------------------------------------------------------------------ *)
(* Streaming cost-ordered engine (default).                            *)
(* ------------------------------------------------------------------ *)

module Stream = Algebra.Stream

(* Filter [order] down to [cols]: every disjunct keeps its columns in
   the one canonical order (free variables first, then the prefix), so
   unions of disjuncts line up without per-union reshuffling. *)
let canonical order cols = List.filter (fun v -> List.mem v cols) order

(* A disjunct that has been reduced to a constant TRUE (e.g. a
   conjunction whose every variable was existentially projected away,
   over a non-empty witness): represented by the first free variable's
   base list, which the final padding extends to the full free product.
   If that range is empty the whole query answer is empty, so the
   representation stays faithful. *)
let true_disjunct coll (plan : Plan.t) =
  Collection.base_list coll (fst (List.hd plan.Plan.free))

(* The conjunction's SOME variables that may be projected away inside
   its own combine.  Walking the prefix innermost-first: a SOME
   variable of the conjunction is eagerly projectable unless an ALL
   variable of the SAME conjunction sits strictly inside it — the
   division at that inner ALL step merges this disjunct into a cohort
   whose quotient must still carry the outer variable.  ALL variables
   the conjunction does not mention never block: that elimination step
   passes the disjunct through untouched. *)
let eager_vars (plan : Plan.t) cols =
  let in_conj v = List.mem v cols in
  let eager, _ =
    List.fold_left
      (fun (eager, blocked) (e : Normalize.prefix_entry) ->
        match e.Normalize.q with
        | Normalize.Q_all when in_conj e.Normalize.v -> (eager, true)
        | Normalize.Q_some when in_conj e.Normalize.v && not blocked ->
          (e.Normalize.v :: eager, blocked)
        | _ -> (eager, blocked))
      ([], false)
      (List.rev plan.Plan.prefix)
  in
  eager

(* Pad [rel] up to the canonical column set [target] with base single
   lists, as one fused product-project-materialize chain. *)
let pad_to coll target rel =
  let cols = columns rel in
  if List.equal String.equal cols target then rel
  else begin
    let missing = List.filter (fun c -> not (List.mem c cols)) target in
    let s =
      List.fold_left
        (fun s v -> Stream.product s (Collection.base_list coll v))
        (Stream.of_relation ~pool:(Collection.batch_pool coll) rel)
        missing
    in
    Stream.materialize
      ~batch_size:(Collection.batch_size coll)
      ~name:"refrel" (Stream.project s target)
  end

(* Combine one conjunction's components in greedy cost order (true
   cardinalities and distinct counts — the inputs are materialized),
   then project the eagerly eliminable variables away in the same
   streaming pass.  Returns [None] for a component-less conjunction
   (constant TRUE). *)
(* Map the cost model's choice onto the stream kernel's scalar arm. *)
let impl_of_algo = function
  | Cost.J_nlj -> Stream.Jnlj
  | Cost.J_hash -> Stream.Jhash
  | Cost.J_batched_nlj -> Stream.Jshared_nlj

let combine_streaming ?force_join ~label ~record coll (plan : Plan.t) order
    components =
  match List.map rel_of components with
  | [] -> None
  | rels ->
    let inputs =
      List.map
        (fun r ->
          {
            Cost.ji_card = Relation.cardinality r;
            ji_cols = columns r;
            ji_distinct = Stats.column_distincts r;
          })
        rels
    in
    let arr = Array.of_list rels
    and inputs_arr = Array.of_list inputs in
    let ordered =
      List.map
        (fun i -> (arr.(i), inputs_arr.(i)))
        (Cost.greedy_join_order inputs)
    in
    let first = fst (List.hd ordered) and rest = List.tl ordered in
    let cols =
      List.fold_left
        (fun acc (r, _) ->
          acc @ List.filter (fun c -> not (List.mem c acc)) (columns r))
        (columns first) rest
    in
    let eager = eager_vars plan cols in
    let keep = List.filter (fun c -> not (List.mem c eager)) cols in
    (* Never project down to zero columns; keep one and let the normal
       elimination step reduce it. *)
    let out_cols =
      if keep = [] then [ List.hd (canonical order cols) ]
      else canonical order keep
    in
    if rest = [] && List.equal String.equal (columns first) out_cols then
      Some first (* already in shape: share the collection structure *)
    else begin
      (* Adaptive per-step algorithm over the TRUE build-side
         statistics (the inputs are materialized): build cardinality
         and the distinct count of the join key — approximated from
         below by the largest per-column distinct count over the shared
         columns, which is conservative (it can only under-report
         distinctness, steering borderline builds toward the shared
         probe walk rather than an oversized hash table). *)
      let step = ref 0 in
      let stream =
        List.fold_left
          (fun s (r, (ji : Cost.join_input)) ->
            incr step;
            let shared =
              List.filter
                (fun c -> Schema.mem (Stream.schema s) c)
                ji.Cost.ji_cols
            in
            if shared = [] then Stream.natural_join s r
            else begin
              let build_distinct =
                List.fold_left
                  (fun acc c ->
                    match List.assoc_opt c ji.Cost.ji_distinct with
                    | Some d -> max acc d
                    | None -> acc)
                  1 shared
              in
              let algo =
                match force_join with
                | Some a -> a
                | None ->
                  Cost.choose_join_algo ~build_card:ji.Cost.ji_card
                    ~build_distinct
              in
              Obs.Metrics.incr
                ("combination.join."
                ^ (match algo with
                  | Cost.J_nlj -> "nlj"
                  | Cost.J_hash -> "hash"
                  | Cost.J_batched_nlj -> "batched_nlj"));
              record
                (Fmt.str "%s.j%d:%s" label !step (Relation.name r))
                (Cost.join_algo_to_string algo);
              Stream.natural_join ~impl:(impl_of_algo algo) s r
            end)
          (Stream.of_relation ~pool:(Collection.batch_pool coll) first)
          rest
      in
      let stream =
        if List.equal String.equal (Schema.names (Stream.schema stream)) out_cols
        then stream
        else Stream.project stream out_cols
      in
      Some
        (Stream.materialize
           ~batch_size:(Collection.batch_size coll)
           ~name:"refrel" stream)
    end

(* Batched universal elimination: the pad -> union -> divide pipeline
   of one Q_all quantifier executed entirely over interned integer
   columns.  The scalar pipeline materializes the padded cohort members
   and their union into whole-tuple-keyed relations — one deep
   structural hash per inserted reference tuple, tens of thousands of
   inserts whose only purpose is to feed the division.  Here each
   cohort member is encoded once (cached in the query pool), the padded
   rows are enumerated as integer rows with an odometer over the
   member x base-list cross product, the division groups by
   integer quotient keys, and only the quotient — typically a few
   rows — is decoded back into a relation.

   Set-equivalence with the scalar path: interning is injective, so
   integer-row equality is tuple equality within the pool; the union's
   set semantics fall out of the image sets (duplicate (quotient,
   image) pairs collapse); cover checks compare the same sets of
   values.  Returns [None] — caller falls back to the scalar pipeline —
   if anything fails to encode or the paired column classes disagree.
   Counter caveat: relation scan/insert counters do not move for the
   skipped intermediates (the batch.rows counters do instead);
   max_ntuple accounting is identical, because the distinct-row count
   of the virtual union is grown exactly like the materialized one. *)
let eliminate_all_batched coll (plan : Plan.t) grow ~v ~common cohort =
  let pool = Collection.batch_pool coll in
  try
    let t0 = Unix.gettimeofday () in
    (* Reference type per common column, from the first cohort member
       carrying it; the padded schema of the scalar path derives its
       attribute types from the same sources. *)
    let type_of_col c =
      let rec go = function
        | [] -> raise Batch.Unbatchable
        | d :: rest ->
          let sd = Relation.schema d in
          if Schema.mem sd c then Schema.type_of sd c else go rest
      in
      go cohort
    in
    let ref_types = List.map type_of_col common in
    let ref_cls = Array.of_list (List.map Batch.cls_of_type ref_types) in
    let k = List.length common in
    let vq =
      match List.find_index (String.equal v) common with
      | Some i -> i
      | None -> raise Batch.Unbatchable
    in
    (* Per cohort member: sources = the member plus one base list per
       missing column; map each common column to its source's encoded
       column, refusing on any column-class mismatch. *)
    let members =
      List.map
        (fun d ->
          let sd = Relation.schema d in
          let missing =
            List.filter (fun c -> not (Schema.mem sd c)) common
          in
          let inputs = d :: List.map (Collection.base_list coll) missing in
          let views =
            List.map
              (fun r ->
                (* The whole pipeline here is order-insensitive (groups,
                   image sets, distinct counts), so a member that was
                   materialized by the batched stream engine can reuse
                   the insertion-order columns it registered. *)
                let e = Batch.encode_relation_unordered pool r in
                ( Relation.schema r,
                  Batch.of_encoded pool e ~off:0 ~len:(Batch.encoded_rows e) ))
              inputs
          in
          let locate j c =
            let rec go si = function
              | [] -> raise Batch.Unbatchable
              | (s, view) :: rest ->
                if Schema.mem s c then begin
                  if Batch.cls_of_type (Schema.type_of s c) <> ref_cls.(j)
                  then raise Batch.Unbatchable;
                  (si, view.Batch.cols.(Schema.index_of s c))
                end
                else go (si + 1) rest
            in
            go 0 views
          in
          let mapping = Array.of_list (List.mapi locate common) in
          let dims =
            Array.of_list (List.map (fun (_, b) -> b.Batch.nrows) views)
          in
          (mapping, dims))
        cohort
    in
    let divisor_rel = Collection.base_list coll v in
    let divisor_view =
      let e = Batch.encode_relation pool divisor_rel in
      Batch.of_encoded pool e ~off:0 ~len:(Batch.encoded_rows e)
    in
    let sdv = Relation.schema divisor_rel in
    if Batch.cls_of_type (Schema.type_of sdv v) <> ref_cls.(vq) then
      raise Batch.Unbatchable;
    let divisor_col = divisor_view.Batch.cols.(Schema.index_of sdv v) in
    (* Everything below is pure integer work — no Unbatchable, so no
       counter can double-bump on fallback. *)
    let divisor_set = Hashtbl.create 64 in
    for r = 0 to divisor_view.Batch.nrows - 1 do
      Hashtbl.replace divisor_set (Batch.cell divisor_col r) ()
    done;
    let needed = Hashtbl.length divisor_set in
    (* Group the virtual union by quotient key, collecting the image
       set of v per group; count distinct rows for the max_ntuple
       accounting. *)
    let groups : (int, unit) Hashtbl.t Batch.Ikey.t =
      Batch.Ikey.create 256
    in
    let dividend_card = ref 0 in
    let rows_in = ref 0 in
    List.iter
      (fun (mapping, dims) ->
        let nsrc = Array.length dims in
        let total = Array.fold_left ( * ) 1 dims in
        if total > 0 then begin
          rows_in := !rows_in + total;
          (* Quotient-ordered (source, column) pairs and a reusable key
             buffer: the loop below allocates only when a new quotient
             group first appears (the key is copied on insert), and the
             image-set membership test rides the single [replace]'s
             length delta instead of a separate [mem]. *)
          let qmap =
            Array.init (k - 1) (fun j -> mapping.(if j < vq then j else j + 1))
          in
          let vsi, vcol = mapping.(vq) in
          let qkey = Array.make (k - 1) 0 in
          let idx = Array.make nsrc 0 in
          let live = ref true in
          let rec bump i =
            if i < 0 then live := false
            else begin
              idx.(i) <- idx.(i) + 1;
              if idx.(i) = dims.(i) then begin
                idx.(i) <- 0;
                bump (i - 1)
              end
            end
          in
          while !live do
            for j = 0 to k - 2 do
              let si, col = qmap.(j) in
              qkey.(j) <- Batch.cell col idx.(si)
            done;
            let img = Batch.cell vcol idx.(vsi) in
            let images =
              match Batch.Ikey.find_opt groups qkey with
              | Some set -> set
              | None ->
                let set = Hashtbl.create 8 in
                Batch.Ikey.replace groups (Array.copy qkey) set;
                set
            in
            let before = Hashtbl.length images in
            Hashtbl.replace images img ();
            if Hashtbl.length images <> before then incr dividend_card;
            bump (nsrc - 1)
          done
        end)
      members;
    (match cohort with
    | [ d ] when List.equal String.equal (columns d) common -> ()
    | _ -> Obs.Metrics.incr "algebra.materialized.union");
    grow !dividend_card;
    let result =
      if k = 1 then begin
        (* Boolean degeneration: does the cohort's v set cover the
           whole range?  (Vacuously yes over an empty divisor.) *)
        let images =
          match Batch.Ikey.find_opt groups [||] with
          | Some set -> set
          | None -> Hashtbl.create 1
        in
        let covered =
          Hashtbl.length images >= needed
          && Hashtbl.fold
               (fun d () acc -> acc && Hashtbl.mem images d)
               divisor_set true
        in
        if covered then [ true_disjunct coll plan ] else []
      end
      else begin
        Obs.Metrics.incr "algebra.materialized.divide";
        let quotient_names = List.filter (fun c -> not (String.equal c v)) common in
        let dividend_schema =
          Schema.make
            (List.map2 (fun c ty -> Schema.attr c ty) common ref_types)
            ~key:[]
        in
        let out =
          Relation.create ~name:"refrel"
            (Schema.project dividend_schema quotient_names)
        in
        let q_cls =
          Array.init (k - 1) (fun j -> ref_cls.(if j < vq then j else j + 1))
        in
        let decode_insert qkey =
          Relation.insert out
            (Array.mapi
               (fun j id ->
                 match q_cls.(j) with
                 | Batch.K_int -> Value.VInt id
                 | Batch.K_bool -> Value.VBool (id <> 0)
                 | Batch.K_obj -> Batch.value pool id)
               qkey)
        in
        Batch.Ikey.iter
          (fun qkey images ->
            let covers =
              needed = 0
              || Hashtbl.length images >= needed
                 && Hashtbl.fold
                      (fun d () acc -> acc && Hashtbl.mem images d)
                      divisor_set true
            in
            if covers then decode_insert qkey)
          groups;
        [ out ]
      end
    in
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    Obs.Metrics.incr ~by:!rows_in "algebra.batch.rows_in";
    Obs.Metrics.incr
      ~by:(match result with [ r ] -> Relation.cardinality r | _ -> 0)
      "algebra.batch.rows_out";
    Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
    Some result
  with Batch.Unbatchable -> None

(* Disjunct-wise right-to-left quantifier elimination over the LIST of
   conjunction relations (heterogeneous column sets); see the header
   comment for the two distribution identities this rests on. *)
let eliminate_streaming coll (plan : Plan.t) grow disjuncts =
  let order = Plan.variable_order plan in
  List.fold_left
    (fun djs (e : Normalize.prefix_entry) ->
      let v = e.Normalize.v in
      Obs.Trace.with_span
        (Fmt.str "eliminate %s %s" (Normalize.quant_to_string e.Normalize.q) v)
        (fun () ->
          let reduced =
            match e.Normalize.q with
            | Normalize.Q_some ->
              List.filter_map
                (fun d ->
                  if not (has_col d v) then Some d
                  else
                    let remaining =
                      List.filter
                        (fun c -> not (String.equal c v))
                        (columns d)
                    in
                    if remaining = [] then
                      (* ∃v over a one-column disjunct is a boolean *)
                      if Relation.is_empty d then None
                      else Some (true_disjunct coll plan)
                    else Some (Algebra.project ~name:"refrel" d remaining))
                djs
            | Normalize.Q_all -> (
              let cohort, others = List.partition (fun d -> has_col d v) djs in
              match cohort with
              | [] -> djs (* no disjunct constrains v: ∀v is vacuous *)
              | _ -> (
                let common =
                  canonical order
                    (List.sort_uniq String.compare
                       (List.concat_map columns cohort))
                in
                match
                  if Collection.batch_size coll > 1 then
                    eliminate_all_batched coll plan grow ~v ~common cohort
                  else None
                with
                | Some reduced -> reduced @ others
                | None ->
                let dividend =
                  match cohort with
                  | [ d ] when List.equal String.equal (columns d) common -> d
                  | _ ->
                    Obs.Trace.with_span "union" (fun () ->
                        let padded = List.map (pad_to coll common) cohort in
                        Algebra.union_all ~name:"refrel"
                          (Relation.schema (List.hd padded))
                          padded)
                in
                grow (Relation.cardinality dividend);
                let divisor = Collection.base_list coll v in
                if List.equal String.equal common [ v ] then
                  (* boolean: does the cohort cover the whole range? *)
                  if
                    Relation.for_all
                      (fun t -> Relation.mem_tuple dividend t)
                      divisor
                  then true_disjunct coll plan :: others
                  else others
                else
                  Algebra.divide ~name:"refrel" ~on:[ (v, v) ] dividend
                    divisor
                  :: others))
          in
          let total =
            List.fold_left (fun n d -> n + Relation.cardinality d) 0 reduced
          in
          Obs.Trace.add_attr "ntuples" (Obs.Json.Int total);
          reduced))
    disjuncts
    (List.rev plan.Plan.prefix)

let evaluate_streaming ?force_join ~record coll (plan : Plan.t) grow =
  let order = Plan.variable_order plan in
  let free_names = List.map fst plan.Plan.free in
  let disjuncts =
    List.mapi
      (fun i conj ->
        Obs.Trace.with_span (Fmt.str "conjunction %d" i) (fun () ->
            let components = Collection.components coll conj in
            let r =
              match
                combine_streaming ?force_join
                  ~label:(Fmt.str "conj%d" i)
                  ~record coll plan order components
              with
              | Some r -> r
              | None -> true_disjunct coll plan
            in
            grow (Relation.cardinality r);
            Obs.Trace.add_attr "ntuples"
              (Obs.Json.Int (Relation.cardinality r));
            r))
      plan.Plan.conjs
  in
  let reduced = eliminate_streaming coll plan grow disjuncts in
  match reduced with
  | [] -> Relation.create ~name:"refrel" (ntuple_schema plan free_names)
  | [ d ] when List.equal String.equal (columns d) free_names -> d
  | ds ->
    Obs.Trace.with_span "union" (fun () ->
        match List.map (pad_to coll free_names) ds with
        | [ d ] -> d
        | padded ->
          let u =
            Algebra.union_all ~name:"refrel"
              (Relation.schema (List.hd padded))
              padded
          in
          grow (Relation.cardinality u);
          u)

(* ------------------------------------------------------------------ *)

(* Full combination phase.  Returns the reference relation over the
   free variables (declaration order), the cardinality of the largest
   n-tuple relation built on the way — the combinatorial-growth metric
   of the experiments — and the join algorithm chosen per streaming
   join step (empty under the Declaration engine, whose joins are the
   literal baseline and take no adaptive choice). *)
type outcome = {
  o_result : Relation.t;
  o_max_ntuple : int;
  o_join_algos : (string * string) list;
}

let evaluate_outcome ?(join_order = Cost_ordered) ?force_join coll
    (plan : Plan.t) =
  let max_ntuple = ref 0 in
  let grow n =
    max_ntuple := max !max_ntuple n;
    Obs.Metrics.gauge_max "combination.max_ntuple" (float_of_int !max_ntuple)
  in
  let joins = ref [] in
  let record step algo = joins := (step, algo) :: !joins in
  let result =
    match join_order with
    | Cost_ordered -> evaluate_streaming ?force_join ~record coll plan grow
    | Declaration -> evaluate_declaration coll plan grow
  in
  {
    o_result = result;
    o_max_ntuple = !max_ntuple;
    o_join_algos = List.rev !joins;
  }

let evaluate_with_stats ?join_order ?force_join coll plan =
  let o = evaluate_outcome ?join_order ?force_join coll plan in
  (o.o_result, o.o_max_ntuple)

let evaluate ?join_order ?force_join coll plan =
  fst (evaluate_with_stats ?join_order ?force_join coll plan)
