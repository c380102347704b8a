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

(* Fused streaming form of the operators above (the combination
   phase's hot path).  A stream describes a kernel chain over one source
   relation; {!Stream.materialize} encodes the source once into pool-id
   columns ({!Batch}), drives it through the chain in [window]-row
   batches and decodes the surviving rows into the chain's one output
   relation — instead of one hashtable-backed relation per operator.
   Each operator is a kernel over batches: projections share columns,
   joins build an integer-keyed table on the materialized side once and
   probe it with the streamed rows. *)
module Stream = struct
  (* One instantiated chain: [feed k b] pushes a window through the
     kernels into [k]; [flush] reports the per-run row counters, once,
     after the last window. *)
  type stage = {
    feed : (Batch.t -> unit) -> Batch.t -> unit;
    flush : unit -> unit;
  }

  type t = {
    schema : Schema.t;
    src : Relation.t;  (* the relation the chain pulls from *)
    pool : Batch.pool;
    stage : unit -> stage;
        (* instantiate the chain: the upstream operators first, so build
           sides are encoded (and their tallies bumped) in chain order *)
  }

  let schema s = s.schema
  let fused op = Obs.Metrics.incr ("algebra.fused." ^ op)

  let of_relation ?pool rel =
    {
      schema = Relation.schema rel;
      src = rel;
      pool = (match pool with Some p -> p | None -> Batch.create_pool ());
      stage = (fun () -> { feed = (fun k -> k); flush = (fun () -> ()) });
    }

  (* Append one operator: [op] receives the instantiated upstream stage
     and returns the extended one. *)
  let extend s schema op = { s with schema; stage = (fun () -> op (s.stage ())) }

  (* Columnar projection shares the retained column arrays — no per-row
     work at all.  Duplicates pass through; the materialization's
     whole-tuple key collapses them. *)
  let project s names =
    let positions = positions_of s.schema names in
    extend s (Schema.project s.schema names) (fun up ->
        fused "project";
        {
          up with
          feed = (fun k -> up.feed (fun b -> k (Batch.project b positions)));
        })

  (* Every probe row pairs with every inner row.  The inner encode is
     walked last-to-first, the order {!product} above emits, so both
     forms insert the same rows in the same order (output relations
     iterate in insertion order within a hash bucket). *)
  let product s rel =
    extend s
      (Schema.concat s.schema (Relation.schema rel))
      (fun up ->
        fused "product";
        Obs.Metrics.incr ~by:(Relation.cardinality rel) "combination.join_rows_in";
        let e = Batch.encode_relation s.pool rel in
        let ni = Batch.encoded_rows e in
        let ib = Batch.of_encoded s.pool e ~off:0 ~len:ni in
        let n_in = ref 0 and n_out = ref 0 in
        {
          feed =
            (fun k ->
              up.feed (fun b ->
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
                    k (Batch.of_cols s.pool cols m)
                  end));
          flush =
            (fun () ->
              up.flush ();
              Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
              Obs.Metrics.incr ~by:!n_out "combination.join_rows_out");
        })

  (* Natural join with the stream as probe side and a materialized
     relation as build side: a hash join over integer keys.  Build
     buckets cons row indices in iteration order and are walked
     front-first.  When the build side contributes no new columns this
     degenerates to a semijoin: one emission per matching probe row,
     regardless of the bucket size. *)
  let natural_join s rel =
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
      extend s out_schema (fun up ->
          fused "join";
          Obs.Metrics.incr ~by:(Relation.cardinality rel) "combination.join_rows_in";
          let e = Batch.encode_relation s.pool rel in
          let nb = Batch.encoded_rows e in
          let eb = Batch.of_encoded s.pool e ~off:0 ~len:nb in
          let tbl = Batch.Ikey.create (max 16 nb) in
          for r = 0 to nb - 1 do
            let key = Batch.key_of_row eb.Batch.cols pb r in
            match Batch.Ikey.find_opt tbl key with
            | Some rows -> Batch.Ikey.replace tbl key (r :: rows)
            | None -> Batch.Ikey.replace tbl key [ r ]
          done;
          let keep_src = Array.map (fun c -> eb.Batch.cols.(c)) keep_positions in
          let n_in = ref 0 and n_out = ref 0 in
          {
            feed =
              (fun k ->
                up.feed (fun b ->
                    n_in := !n_in + Batch.live_count b;
                    if keep_b = [] then begin
                      let out =
                        Batch.filter b (fun i ->
                            Batch.Ikey.mem tbl (Batch.key_of_row b.Batch.cols pa i))
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
                        let cols =
                          Array.append
                            (Batch.gather_cols b.Batch.cols
                               (Batch.Ivec.to_array pidx))
                            (Batch.gather_cols keep_src
                               (Batch.Ivec.to_array bidx))
                        in
                        k (Batch.of_cols s.pool cols m)
                      end
                    end));
            flush =
              (fun () ->
                up.flush ();
                Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
                Obs.Metrics.incr ~by:!n_out "combination.join_rows_out");
          })

  (* Rows per window: big enough to amortize the per-batch dispatch,
     small enough that a join's gather buffers stay cache-resident. *)
  let window = 2048

  (* The chain's one output relation.  The schema is re-keyed on the
     whole tuple (set semantics, like every intermediate reference
     relation), preallocated from the source cardinality (the output
     bound of a project/join chain over it), and the insertions skip
     the per-value domain check: every emitted tuple is a
     projection/concatenation of tuples from already-checked
     relations. *)
  let materialize ?name s =
    let enc = Batch.encode_relation s.pool s.src in
    Obs.Metrics.incr "algebra.materialized.stream";
    let n = Batch.encoded_rows enc in
    let out =
      Relation.create ?name ~size_hint:(Relation.cardinality s.src)
        (Schema.make (Schema.attrs s.schema) ~key:[])
    in
    let rows_out = ref 0 in
    let t0 = Unix.gettimeofday () in
    let chain = s.stage () in
    (* Accumulate the inserted rows' pool ids alongside the decode, and
       register them as the output's insertion-order encode — a later
       set-semantics pass (the columnar divide) then reuses these
       columns instead of re-interning the whole intermediate. *)
    let acc = Batch.acc_create (Schema.arity s.schema) in
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
      let len = min window (n - !off) in
      chain.feed sink (Batch.of_encoded s.pool enc ~off:!off ~len);
      off := !off + len
    done;
    chain.flush ();
    Batch.register_unordered s.pool out (Batch.acc_finish acc);
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    Obs.Metrics.incr ~by:n "algebra.batch.rows_in";
    Obs.Metrics.incr ~by:!rows_out "algebra.batch.rows_out";
    Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
    out
end

let cardinality = Relation.cardinality
