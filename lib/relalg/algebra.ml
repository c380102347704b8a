(* Relational algebra over keyed relations.

   The combination phase of the paper's evaluator (Section 3.3) is
   expressed in these operators: join and Cartesian product combine the
   reference relations of each conjunction, union evaluates the full
   disjunctive form, projection eliminates existential quantifiers and
   division universal ones (Codd's relational completeness repertoire,
   the paper's reference [5]). *)

let fresh_name base = base

(* Per-operator materialization tallies: each classic operator call
   allocates one output relation; the fused {!Stream} pipeline reports
   the operators it avoided materializing under [algebra.fused.*]. *)
let tally op = Obs.Metrics.incr ("algebra.materialized." ^ op)

let select ?(name = fresh_name "select") pred rel =
  tally "select";
  let out = Relation.create ~name (Relation.schema rel) in
  Relation.scan (fun t -> if pred t then Relation.insert out t) rel;
  out

let project ?(name = fresh_name "project") rel names =
  tally "project";
  let schema = Relation.schema rel in
  let out_schema = Schema.project schema names in
  let positions =
    Array.of_list (List.map (Schema.index_of schema) names)
  in
  let out = Relation.create ~name out_schema in
  Relation.scan (fun t -> Relation.insert out (Tuple.project positions t)) rel;
  out

let rename ?(name = fresh_name "rename") rel mapping =
  let out = Relation.create ~name (Schema.rename (Relation.schema rel) mapping) in
  Relation.iter (Relation.insert out) rel;
  out

let product ?(name = fresh_name "product") a b =
  tally "product";
  let out_schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out = Relation.create ~name out_schema in
  (* Materialize the inner side once; scanning it per outer element would
     distort the scan counters the experiments report. *)
  let inner = Relation.scan_fold (fun acc t -> t :: acc) [] b in
  Relation.scan
    (fun ta ->
      List.iter (fun tb -> Relation.insert out (Tuple.concat ta tb)) inner)
    a;
  out

(* θ-join: product restricted by an arbitrary predicate over the paired
   tuples.  Nested loops; used for the non-equality join terms. *)
let theta_join ?(name = fresh_name "theta_join") pred a b =
  tally "join";
  let out_schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out = Relation.create ~name out_schema in
  let inner = Relation.scan_fold (fun acc t -> t :: acc) [] b in
  Relation.scan
    (fun ta ->
      List.iter
        (fun tb -> if pred ta tb then Relation.insert out (Tuple.concat ta tb))
        inner)
    a;
  out

(* Join keys are value arrays (the projected tuple itself), looked up in
   array-keyed {!Value_key} tables — no per-probe list allocation. *)
let join_key positions t = Tuple.project positions t

let positions_of schema names =
  Array.of_list (List.map (Schema.index_of schema) names)

(* Hash equi-join on pairs of equated attributes; output is the
   concatenation of both sides (names must stay distinct). *)
let equi_join ?(name = fresh_name "join") ~on a b =
  tally "join";
  let sa = Relation.schema a and sb = Relation.schema b in
  let pa = positions_of sa (List.map fst on) in
  let pb = positions_of sb (List.map snd on) in
  let out = Relation.create ~name (Schema.concat sa sb) in
  let table = Value_key.acreate (max 16 (Relation.cardinality b)) in
  Relation.scan (fun tb -> Value_key.add_multi_a table (join_key pb tb) tb) b;
  Relation.scan
    (fun ta ->
      List.iter
        (fun tb -> Relation.insert out (Tuple.concat ta tb))
        (Value_key.find_multi_a table (join_key pa ta)))
    a;
  out

(* Sort-merge equi-join — the classical alternative to the hash join for
   "computing joins of relations" (the paper's references [6,9] at the
   point where the combination phase performs join and product).  Same
   contract as {!equi_join}. *)
let merge_join ?(name = fresh_name "merge_join") ~on a b =
  tally "join";
  let sa = Relation.schema a and sb = Relation.schema b in
  let pa = positions_of sa (List.map fst on) in
  let pb = positions_of sb (List.map snd on) in
  let out = Relation.create ~name (Schema.concat sa sb) in
  let key_cmp k1 k2 = Tuple.compare k1 k2 in
  let sorted rel positions =
    let items =
      Relation.scan_fold
        (fun acc t -> (join_key positions t, t) :: acc)
        [] rel
    in
    Array.of_list
      (List.sort (fun (k1, t1) (k2, t2) ->
           let c = key_cmp k1 k2 in
           if c <> 0 then c else Tuple.compare t1 t2)
         items)
  in
  let xs = sorted a pa and ys = sorted b pb in
  let nx = Array.length xs and ny = Array.length ys in
  let i = ref 0 and j = ref 0 in
  while !i < nx && !j < ny do
    let ka, _ = xs.(!i) and kb, _ = ys.(!j) in
    let c = key_cmp ka kb in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      (* emit the cross product of the two equal-key runs *)
      let i_end = ref !i in
      while !i_end < nx && key_cmp (fst xs.(!i_end)) ka = 0 do
        incr i_end
      done;
      let j_end = ref !j in
      while !j_end < ny && key_cmp (fst ys.(!j_end)) kb = 0 do
        incr j_end
      done;
      for x = !i to !i_end - 1 do
        for y = !j to !j_end - 1 do
          Relation.insert out (Tuple.concat (snd xs.(x)) (snd ys.(y)))
        done
      done;
      i := !i_end;
      j := !j_end
    end
  done;
  out

(* Nested-loop equi-join, for completeness of the operator suite (and as
   the reference implementation in the join-equivalence properties). *)
let nested_loop_join ?(name = fresh_name "nl_join") ~on a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let pa = positions_of sa (List.map fst on) in
  let pb = positions_of sb (List.map snd on) in
  theta_join ~name
    (fun ta tb -> Tuple.equal (join_key pa ta) (join_key pb tb))
    a b

(* Natural join: equi-join on the shared attribute names, with the
   duplicated columns of the right side projected away. *)
let natural_join ?(name = fresh_name "natural_join") a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let shared = List.filter (fun n -> Schema.mem sa n) (Schema.names sb) in
  match shared with
  | [] -> product ~name a b
  | _ ->
    tally "join";
    let pa = positions_of sa shared and pb = positions_of sb shared in
    let keep_b =
      List.filter (fun n -> not (Schema.mem sa n)) (Schema.names sb)
    in
    let keep_positions = positions_of sb keep_b in
    let out_schema =
      if keep_b = [] then Relation.schema a
      else
        Schema.concat sa (Schema.project sb keep_b)
    in
    let out = Relation.create ~name out_schema in
    let table = Value_key.acreate (max 16 (Relation.cardinality b)) in
    Relation.scan (fun tb -> Value_key.add_multi_a table (join_key pb tb) tb) b;
    Relation.scan
      (fun ta ->
        List.iter
          (fun tb ->
            let combined =
              if keep_b = [] then ta
              else Tuple.concat_project ta keep_positions tb
            in
            Relation.insert out combined)
          (Value_key.find_multi_a table (join_key pa ta)))
      a;
    out

let require_same_shape op a b =
  if not (Schema.same_shape (Relation.schema a) (Relation.schema b)) then
    Errors.schema_error "%s: incompatible schemas %a vs %a" op Schema.pp
      (Relation.schema a) Schema.pp (Relation.schema b)

let union ?(name = fresh_name "union") a b =
  tally "union";
  require_same_shape "union" a b;
  let out = Relation.create ~name (Relation.schema a) in
  Relation.scan (Relation.insert out) a;
  Relation.scan (Relation.insert out) b;
  out

let union_all ?(name = fresh_name "union") schema rels =
  tally "union";
  let out = Relation.create ~name schema in
  List.iter
    (fun r ->
      require_same_shape "union" out r;
      Relation.scan (Relation.insert out) r)
    rels;
  out

let inter ?(name = fresh_name "inter") a b =
  require_same_shape "inter" a b;
  select ~name (fun t -> Relation.mem_tuple b t) a

let diff ?(name = fresh_name "diff") a b =
  require_same_shape "diff" a b;
  select ~name (fun t -> not (Relation.mem_tuple b t)) a

(* Semijoin a ⋉ b on equated attributes: elements of a that join with at
   least one element of b (Bernstein/Chiu, the paper's reference [2]). *)
let semijoin ?(name = fresh_name "semijoin") ~on a b =
  let pa = positions_of (Relation.schema a) (List.map fst on) in
  let pb = positions_of (Relation.schema b) (List.map snd on) in
  let table = Value_key.acreate (max 16 (Relation.cardinality b)) in
  Relation.scan (fun tb -> Value_key.Atable.replace table (join_key pb tb) ()) b;
  select ~name (fun ta -> Value_key.Atable.mem table (join_key pa ta)) a

(* Antijoin a ▷ b: elements of a that join with no element of b — the
   universal-quantifier counterpart of the semijoin (Section 5's
   "extended to the case of universal quantifiers"). *)
let antijoin ?(name = fresh_name "antijoin") ~on a b =
  let pa = positions_of (Relation.schema a) (List.map fst on) in
  let pb = positions_of (Relation.schema b) (List.map snd on) in
  let table = Value_key.acreate (max 16 (Relation.cardinality b)) in
  Relation.scan (fun tb -> Value_key.Atable.replace table (join_key pb tb) ()) b;
  select ~name (fun ta -> not (Value_key.Atable.mem table (join_key pa ta))) a

(* Division r ÷ s on pairs (r attribute, s attribute): quotient tuples q
   over the remaining attributes of r such that for EVERY element of s
   the combination (q, s-values) appears in r — the relational-algebra
   rendering of universal quantification (paper Section 3.3, refs [5,11]).
   Division by an empty divisor yields all quotient projections of r
   (ALL over the empty relation holds vacuously); callers that need the
   stricter adaptation of Lemma 1 handle emptiness beforehand. *)
let divide ?(name = fresh_name "divide") ~on r s =
  tally "divide";
  let sr = Relation.schema r and ss = Relation.schema s in
  let pr_on = positions_of sr (List.map fst on) in
  let ps_on = positions_of ss (List.map snd on) in
  let quotient_names =
    List.filter
      (fun n -> not (List.mem_assoc n on))
      (Schema.names sr)
  in
  if quotient_names = [] then
    Errors.schema_error "divide: no quotient attributes remain";
  let pr_quot = positions_of sr quotient_names in
  let out_schema = Schema.project sr quotient_names in
  (* Distinct divisor images, deduplicated through a hash table rather
     than a linear membership test over the accumulator. *)
  let divisor_set = Value_key.acreate (max 16 (Relation.cardinality s)) in
  Relation.scan
    (fun t -> Value_key.Atable.replace divisor_set (join_key ps_on t) ())
    s;
  let divisor =
    Value_key.Atable.fold (fun k () acc -> k :: acc) divisor_set []
  in
  let needed = List.length divisor in
  let out = Relation.create ~name out_schema in
  if needed = 0 then begin
    Relation.scan (fun t -> Relation.insert out (Tuple.project pr_quot t)) r;
    out
  end
  else begin
    (* Group r by quotient values, collecting the set of divisor images. *)
    let groups : unit Value_key.atable Value_key.atable =
      Value_key.acreate 64
    in
    Relation.scan
      (fun t ->
        let q = join_key pr_quot t and d = join_key pr_on t in
        let images =
          match Value_key.Atable.find_opt groups q with
          | Some set -> set
          | None ->
            let set = Value_key.acreate 8 in
            Value_key.Atable.replace groups q set;
            set
        in
        Value_key.Atable.replace images d ())
      r;
    Value_key.Atable.iter
      (fun q images ->
        let covers =
          Value_key.Atable.length images >= needed
          && List.for_all (fun d -> Value_key.Atable.mem images d) divisor
        in
        if covers then Relation.insert out q)
      groups;
    out
  end

(* Fused streaming form of the operators above (combination-phase hot
   path).  A stream is a push producer: [emit k] drives every tuple of
   the (virtual) result through the consumer [k].  Chaining streams
   composes the per-tuple callbacks directly, so an operator chain
   allocates exactly one output relation — at the final {!Stream.
   materialize} — instead of one hashtable-backed relation per operator.
   Joins hash the materialized build side once (lazily, inside the
   single [emit] run) and probe it with the streamed tuples. *)
module Stream = struct
  (* Alongside the scalar [emit], a stream carries an optional batched
     (columnar) description of itself.  The source relation is encoded
     once into column arrays and driven through the chain in windows of
     [batch_size] rows; each operator is a kernel over batches
     (selection vectors, column shares, integer-keyed hash tables)
     instead of a per-tuple callback.  [bt_force] performs the encodes
     of every build side (it may raise {!Batch.Unbatchable}, in which
     case {!materialize} falls back to the scalar emit before any
     counter has moved); [bt_stage] instantiates the kernel chain once
     the build sides are forced, bumping each operator's per-run tallies
     exactly as the scalar emit would.  Kernels reproduce the scalar
     emission order exactly — see each operator's comment. *)
  type bstage = {
    bfeed : (Batch.t -> unit) -> Batch.t -> unit;
    bflush : unit -> unit;
        (* report the instance's row counters — called once, after the
           last window is fed *)
  }

  type bat_chain = {
    bt_pool : Batch.pool;
    bt_force : unit -> unit;
    bt_stage : unit -> bstage;
  }

  type t = {
    schema : Schema.t;
    src : Relation.t;  (* the relation the chain pulls from *)
    emit : (Tuple.t -> unit) -> unit;
    bat : bat_chain option;
  }

  let schema s = s.schema
  let fused op = Obs.Metrics.incr ("algebra.fused." ^ op)

  let of_relation ?pool rel =
    let bt_pool =
      match pool with Some p -> p | None -> Batch.create_pool ()
    in
    {
      schema = Relation.schema rel;
      src = rel;
      emit = (fun k -> Relation.iter k rel);
      bat =
        Some
          {
            bt_pool;
            bt_force = (fun () -> ());
            bt_stage =
              (fun () -> { bfeed = (fun k -> k); bflush = (fun () -> ()) });
          };
    }

  let extend_bat bc ~force ~prime ~stage =
    {
      bc with
      bt_force =
        (fun () ->
          bc.bt_force ();
          force ());
      bt_stage =
        (fun () ->
          let up = bc.bt_stage () in
          prime ();
          stage up);
    }

  let no_force () = ()

  let select pred s =
    {
      s with
      emit =
        (fun k ->
          fused "select";
          s.emit (fun t -> if pred t then k t));
      (* Opaque predicates take boxed tuples, so the kernel decodes each
         live row once and refines the selection vector — downstream
         kernels never look at the dropped rows again. *)
      bat =
        Option.map
          (extend_bat ~force:no_force
             ~prime:(fun () -> fused "select")
             ~stage:(fun up ->
               {
                 bfeed =
                   (fun k ->
                     up.bfeed (fun b ->
                         k (Batch.filter b (fun i -> pred (Batch.tuple b i)))));
                 bflush = up.bflush;
               }))
          s.bat;
    }

  let project s names =
    let positions = positions_of s.schema names in
    {
      s with
      schema = Schema.project s.schema names;
      emit =
        (fun k ->
          fused "project";
          s.emit (fun t -> k (Tuple.project positions t)));
      (* Columnar projection shares the retained column arrays — no
         per-row work at all. *)
      bat =
        Option.map
          (extend_bat ~force:no_force
             ~prime:(fun () -> fused "project")
             ~stage:(fun up ->
               {
                 bfeed = (fun k -> up.bfeed (fun b -> k (Batch.project b positions)));
                 bflush = up.bflush;
               }))
          s.bat;
    }

  (* Streaming duplicate elimination: a projection can multiply the rows
     every downstream operator touches, so collapse duplicates as they
     pass rather than waiting for the materialization's key table. *)
  let dedup s =
    {
      s with
      emit =
        (fun k ->
          fused "dedup";
          let seen = Value_key.acreate 64 in
          s.emit (fun t ->
              if not (Value_key.Atable.mem seen t) then begin
                Value_key.Atable.replace seen t ();
                k t
              end));
      (* Batched dedup keeps a seen-set of integer rows: hashing machine
         ints instead of re-walking nested reference keys per tuple.
         First occurrences pass in arrival order, so the output matches
         the scalar path. *)
      bat =
        (let arity = Schema.arity s.schema in
         let positions = Array.init arity Fun.id in
         Option.map
           (extend_bat ~force:no_force
              ~prime:(fun () -> fused "dedup")
              ~stage:(fun up ->
                let seen = Batch.Ikey.create 64 in
                {
                  bfeed =
                    (fun k ->
                      up.bfeed (fun b ->
                          k
                            (Batch.filter b (fun i ->
                                 let key = Batch.key_of_row b.Batch.cols positions i in
                                 if Batch.Ikey.mem seen key then false
                                 else begin
                                   Batch.Ikey.replace seen key ();
                                   true
                                 end))));
                  bflush = up.bflush;
                }))
           s.bat);
    }

  let product s rel =
    let out_schema = Schema.concat s.schema (Relation.schema rel) in
    let bat =
      match s.bat with
      | None -> None
      | Some bc ->
        (* The scalar path folds the inner relation into a cons list —
           i.e. *reversed* iteration order — so the kernel walks the
           iteration-order encode backwards to emit identical rows. *)
        let enc = lazy (Batch.encode_relation bc.bt_pool rel) in
        Some
          (extend_bat bc
             ~force:(fun () -> ignore (Lazy.force enc : Batch.encoded))
             ~prime:(fun () ->
               fused "product";
               Obs.Metrics.incr
                 ~by:(Relation.cardinality rel)
                 "combination.join_rows_in")
             ~stage:(fun up ->
               let e = Lazy.force enc in
               let ni = Batch.encoded_rows e in
               let ib = Batch.of_encoded bc.bt_pool e ~off:0 ~len:ni in
               let n_in = ref 0 and n_out = ref 0 in
               {
                 bfeed =
                   (fun k ->
                     up.bfeed (fun b ->
                         let lc = Batch.live_count b in
                         n_in := !n_in + lc;
                         let m = lc * ni in
                         if m > 0 then begin
                           n_out := !n_out + m;
                           let pidx = Array.make m 0 and iidx = Array.make m 0 in
                           let j = ref 0 in
                           Batch.live_iter
                             (fun i ->
                               for r = ni - 1 downto 0 do
                                 pidx.(!j) <- i;
                                 iidx.(!j) <- r;
                                 incr j
                               done)
                             b;
                           let cols =
                             Array.append
                               (Batch.gather_cols b.Batch.cols pidx)
                               (Batch.gather_cols ib.Batch.cols iidx)
                           in
                           k (Batch.of_cols bc.bt_pool cols m)
                         end));
                 bflush =
                   (fun () ->
                     up.bflush ();
                     Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
                     Obs.Metrics.incr ~by:!n_out "combination.join_rows_out");
               }))
    in
    {
      s with
      schema = out_schema;
      emit =
        (fun k ->
          fused "product";
          let inner = Relation.fold (fun acc t -> t :: acc) [] rel in
          let n_in = ref (Relation.cardinality rel) and n_out = ref 0 in
          s.emit (fun ta ->
              incr n_in;
              List.iter
                (fun tb ->
                  incr n_out;
                  k (Tuple.concat ta tb))
                inner);
          Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
          Obs.Metrics.incr ~by:!n_out "combination.join_rows_out");
      bat;
    }

  (* Which physical algorithm the scalar arm of {!natural_join} runs.
     The choice is the caller's (the combination phase's cost model);
     the operator guarantees identical output for all three. *)
  type join_impl = Jhash | Jnlj | Jshared_nlj

  (* Natural join with the stream as probe side and a materialized
     relation as build side.  When the build side contributes no new
     columns this degenerates to a semijoin: one emission per matching
     probe tuple, regardless of the bucket/match-list size.

     Three scalar implementations share the operator: the hash join
     (build a key table, probe per tuple), plain nested loops (walk the
     build side per probe — no build cost, wins on tiny builds), and
     shared nested loops (memoize the inner walk per distinct probe
     key, so duplicate-heavy probe streams pay one walk per key).  All
     three emit the SAME sequence: the hash table's buckets are
     cons-built in iteration order and walked front-first — reverse
     iteration order — and the nested-loop inner list is built by a
     consing fold over the same iteration, so per-probe matches surface
     in the identical order whichever algorithm runs.  The batched arm
     therefore always runs the hash machinery: output is byte-identical,
     and that arm is only active at cardinalities where hashing wins
     anyway. *)
  let natural_join ?(impl = Jhash) s rel =
    let sa = s.schema and sb = Relation.schema rel in
    let shared = List.filter (fun n -> Schema.mem sa n) (Schema.names sb) in
    match shared with
    | [] -> product s rel
    | _ ->
      let pa = positions_of sa shared and pb = positions_of sb shared in
      let keep_b =
        List.filter (fun n -> not (Schema.mem sa n)) (Schema.names sb)
      in
      let keep_positions = positions_of sb keep_b in
      let out_schema =
        if keep_b = [] then sa else Schema.concat sa (Schema.project sb keep_b)
      in
      let table =
        lazy
          (let tbl = Value_key.acreate (max 16 (Relation.cardinality rel)) in
           Relation.iter
             (fun tb -> Value_key.add_multi_a tbl (join_key pb tb) tb)
             rel;
           tbl)
      in
      let probe tbl ta per_match =
        match Value_key.Atable.find_opt tbl (join_key pa ta) with
        | None -> ()
        | Some tbs ->
          if keep_b = [] then per_match ta
          else
            List.iter
              (fun tb -> per_match (Tuple.concat_project ta keep_positions tb))
              tbs
      in
      (* Integer keys are only comparable when the paired columns encode
         into the same class (a raw int on one side and a pool id on the
         other would collide meaninglessly), so the batched form exists
         only when every shared attribute's classes agree.  Build
         buckets cons row indices in iteration order and are walked
         front-first — exactly the scalar table's LIFO bucket order. *)
      let classes_ok =
        let ok = ref true in
        Array.iteri
          (fun idx ca ->
            if
              Batch.cls_of_type (Schema.type_at sa ca)
              <> Batch.cls_of_type (Schema.type_at sb pb.(idx))
            then ok := false)
          pa;
        !ok
      in
      let bat =
        match s.bat with
        | Some bc when classes_ok ->
          let built =
            lazy
              (let e = Batch.encode_relation bc.bt_pool rel in
               let nb = Batch.encoded_rows e in
               let eb = Batch.of_encoded bc.bt_pool e ~off:0 ~len:nb in
               let tbl = Batch.Ikey.create (max 16 nb) in
               for r = 0 to nb - 1 do
                 let key = Batch.key_of_row eb.Batch.cols pb r in
                 match Batch.Ikey.find_opt tbl key with
                 | Some rows -> Batch.Ikey.replace tbl key (r :: rows)
                 | None -> Batch.Ikey.replace tbl key [ r ]
               done;
               eb, tbl)
          in
          Some
            (extend_bat bc
               ~force:(fun () ->
                 ignore (Lazy.force built : Batch.t * int list Batch.Ikey.t))
               ~prime:(fun () ->
                 fused "join";
                 Obs.Metrics.incr
                   ~by:(Relation.cardinality rel)
                   "combination.join_rows_in")
               ~stage:(fun up ->
                 let eb, tbl = Lazy.force built in
                 let n_in = ref 0 and n_out = ref 0 in
                 {
                   bfeed =
                     (fun k ->
                       up.bfeed (fun b ->
                           n_in := !n_in + Batch.live_count b;
                           if keep_b = [] then begin
                             (* Semijoin degeneration: keep the probe
                                rows whose key has a bucket. *)
                             let out =
                               Batch.filter b (fun i ->
                                   Batch.Ikey.mem tbl
                                     (Batch.key_of_row b.Batch.cols pa i))
                             in
                             let lc = Batch.live_count out in
                             if lc > 0 then begin
                               n_out := !n_out + lc;
                               k out
                             end
                           end
                           else begin
                             let pidx = Batch.Ivec.create ()
                             and bidx = Batch.Ivec.create () in
                             Batch.live_iter
                               (fun i ->
                                 match
                                   Batch.Ikey.find_opt tbl
                                     (Batch.key_of_row b.Batch.cols pa i)
                                 with
                                 | None -> ()
                                 | Some rows ->
                                   List.iter
                                     (fun r ->
                                       Batch.Ivec.push pidx i;
                                       Batch.Ivec.push bidx r)
                                     rows)
                               b;
                             let m = Batch.Ivec.length pidx in
                             if m > 0 then begin
                               n_out := !n_out + m;
                               let pidx = Batch.Ivec.to_array pidx
                               and bidx = Batch.Ivec.to_array bidx in
                               let keep_src =
                                 Array.map
                                   (fun c -> eb.Batch.cols.(c))
                                   keep_positions
                               in
                               let cols =
                                 Array.append
                                   (Batch.gather_cols b.Batch.cols pidx)
                                   (Batch.gather_cols keep_src bidx)
                               in
                               k (Batch.of_cols bc.bt_pool cols m)
                             end
                           end));
                   bflush =
                     (fun () ->
                       up.bflush ();
                       Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
                       Obs.Metrics.incr ~by:!n_out "combination.join_rows_out");
                 }))
        | _ -> None
      in
      (* The nested-loop arms' inner list: (key, tuple) pairs consed in
         iteration order, so its head is the LAST iterated tuple — the
         exact order the hash table's buckets are walked in. *)
      let keyed_inner =
        lazy (Relation.fold (fun acc tb -> (join_key pb tb, tb) :: acc) [] rel)
      in
      let keys_equal ka kb =
        let n = Array.length ka in
        Array.length kb = n
        &&
        let rec go i = i >= n || (Value.equal ka.(i) kb.(i) && go (i + 1)) in
        go 0
      in
      let emit_matches ta matches n_out k =
        if keep_b = [] then begin
          if matches <> [] then begin
            incr n_out;
            k ta
          end
        end
        else
          List.iter
            (fun tb ->
              incr n_out;
              k (Tuple.concat_project ta keep_positions tb))
            matches
      in
      let scalar_emit =
        match impl with
        | Jhash ->
          fun k ->
            fused "join";
            let tbl = Lazy.force table in
            let n_in = ref (Relation.cardinality rel) and n_out = ref 0 in
            s.emit (fun ta ->
                incr n_in;
                probe tbl ta (fun t ->
                    incr n_out;
                    k t));
            Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
            Obs.Metrics.incr ~by:!n_out "combination.join_rows_out"
        | Jnlj ->
          fun k ->
            fused "join";
            let inner = Lazy.force keyed_inner in
            let n_in = ref (Relation.cardinality rel) and n_out = ref 0 in
            s.emit (fun ta ->
                incr n_in;
                let ka = join_key pa ta in
                if keep_b = [] then begin
                  if List.exists (fun (kb, _) -> keys_equal ka kb) inner
                  then begin
                    incr n_out;
                    k ta
                  end
                end
                else
                  List.iter
                    (fun (kb, tb) ->
                      if keys_equal ka kb then begin
                        incr n_out;
                        k (Tuple.concat_project ta keep_positions tb)
                      end)
                    inner);
            Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
            Obs.Metrics.incr ~by:!n_out "combination.join_rows_out"
        | Jshared_nlj ->
          fun k ->
            fused "join";
            let inner = Lazy.force keyed_inner in
            let memo : Tuple.t list Value_key.atable =
              Value_key.acreate 64
            in
            let n_in = ref (Relation.cardinality rel) and n_out = ref 0 in
            s.emit (fun ta ->
                incr n_in;
                let ka = join_key pa ta in
                let matches =
                  match Value_key.Atable.find_opt memo ka with
                  | Some ms -> ms
                  | None ->
                    let ms =
                      List.filter_map
                        (fun (kb, tb) ->
                          if keys_equal ka kb then Some tb else None)
                        inner
                    in
                    Value_key.Atable.replace memo ka ms;
                    ms
                in
                emit_matches ta matches n_out k);
            Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
            Obs.Metrics.incr ~by:!n_out "combination.join_rows_out"
      in
      { s with schema = out_schema; emit = scalar_emit; bat }

  (* The chain's one output relation.  The schema is re-keyed on the
     whole tuple (set semantics, like every intermediate reference
     relation), and the insertions skip the per-value domain check:
     every emitted tuple is a projection/concatenation of tuples from
     already-checked relations. *)
  let materialize ?(batch_size = 1) ?name s =
    (* Both arms preallocate the output key table from the source
       cardinality (the output bound of a select/project/dedup/join
       chain over it) and replay the same insertion sequence, so the
       resulting relation iterates identically whichever arm ran. *)
    let out_relation () =
      Relation.create ?name ~size_hint:(Relation.cardinality s.src)
        (Schema.make (Schema.attrs s.schema) ~key:[])
    in
    let scalar () =
      Obs.Metrics.incr "algebra.materialized.stream";
      let out = out_relation () in
      s.emit (Relation.insert_unchecked out);
      out
    in
    (* Batched execution: encode the source once, drive [batch_size]-row
       windows through the kernel chain, decode the surviving rows into
       the output.  [bt_force] runs before any counter moves, so an
       {!Batch.Unbatchable} encode falls back to the scalar arm with
       identical observable behaviour. *)
    let batched bc =
      let enc = Batch.encode_relation bc.bt_pool s.src in
      bc.bt_force ();
      Obs.Metrics.incr "algebra.materialized.stream";
      let n = Batch.encoded_rows enc in
      let out = out_relation () in
      let rows_out = ref 0 in
      let t0 = Unix.gettimeofday () in
      let inst = bc.bt_stage () in
      (* Accumulate the inserted rows' integer cells alongside the
         decode, and register them as the output's insertion-order
         encode — a later set-semantics pass (the columnar divide) then
         reuses these columns instead of re-interning the whole
         intermediate. *)
      let acc =
        Batch.acc_create
          (Array.init (Schema.arity s.schema) (fun c ->
               Batch.cls_of_type (Schema.type_at s.schema c)))
      in
      let sink ob =
        Batch.live_iter
          (fun i ->
            incr rows_out;
            let before = Relation.cardinality out in
            Relation.insert_unchecked out (Batch.tuple ob i);
            if Relation.cardinality out <> before then Batch.acc_push acc ob i)
          ob
      in
      let off = ref 0 in
      while !off < n do
        let len = min batch_size (n - !off) in
        inst.bfeed sink (Batch.of_encoded bc.bt_pool enc ~off:!off ~len);
        off := !off + len
      done;
      inst.bflush ();
      Batch.register_unordered bc.bt_pool out (Batch.acc_finish acc);
      let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
      Obs.Metrics.incr ~by:n "algebra.batch.rows_in";
      Obs.Metrics.incr ~by:!rows_out "algebra.batch.rows_out";
      Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
      out
    in
    match s.bat with
    | Some bc when batch_size > 1 -> (
      try batched bc with Batch.Unbatchable -> scalar ())
    | _ -> scalar ()
end

let cardinality = Relation.cardinality
