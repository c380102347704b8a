(* Unit tests for strategy 4's plan transformation: splitting conditions
   (Lemma 1), quantifier swapping, operator orientation, and the nested
   pushes of Example 4.7. *)

open Pascalr
open Pascalr.Calculus
open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let exec_q_report ?opts db q = Session.exec_report ?opts (Session.create db) q


let prepare_plan db q strategy = Session.plan_only ~opts:(Exec_opts.make ~strategy:strategy ()) db q

(* SOME with one dyadic term: pushed. *)
let test_some_single_dyadic_pushed () =
  let db = Fixtures.make () in
  let q = Workload.Queries.minmax_some_query db in
  let plan = prepare_plan db q Strategy.s1234 in
  Alcotest.(check int) "prefix emptied" 0 (List.length plan.Plan.prefix);
  let conj = List.hd plan.Plan.conjs in
  Alcotest.(check int) "one derived predicate" 1 (List.length conj.Plan.derived);
  let vm, p = List.hd conj.Plan.derived in
  Alcotest.(check string) "attached to e" "e" vm;
  Alcotest.(check string) "pushed variable" "p" p.Plan.p_var;
  Alcotest.(check string) "outer attr" "enr" p.Plan.p_outer_attr;
  Alcotest.(check string) "inner attr" "penr" p.Plan.p_inner_attr

(* Orientation: the atom p.penr >= e.enr must orient to e.enr <= p.penr. *)
let test_orientation_flips () =
  let db = Fixtures.make () in
  let q =
    {
      free = [ ("e", base "employees") ];
      select = [ ("e", "enr") ];
      body = f_some "p" (base "papers") (ge (attr "p" "penr") (attr "e" "enr"));
    }
  in
  let plan = prepare_plan db q Strategy.s1234 in
  let _, p = List.hd (List.hd plan.Plan.conjs).Plan.derived in
  Alcotest.(check string) "op flipped to <=" "<="
    (Value.comparison_to_string p.Plan.p_op);
  (* And the answer matches the naive evaluator. *)
  Alcotest.(check bool) "correct" true
    (Relation.equal_set (Naive_eval.run db q)
       (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q))

(* Two dyadic terms over the same quantified variable: not pushable. *)
let test_two_dyadics_not_pushed () =
  let db = Fixtures.make () in
  let q =
    {
      free = [ ("e", base "employees") ];
      select = [ ("e", "enr") ];
      body =
        f_some "t" (base "timetable")
          (f_and
             (eq (attr "t" "tenr") (attr "e" "enr"))
             (le (attr "t" "tcnr") (attr "e" "enr")));
    }
  in
  let plan = prepare_plan db q Strategy.s1234 in
  Alcotest.(check int) "t stays in the prefix" 1 (List.length plan.Plan.prefix)

(* An ALL variable occurring in two conjunctions: Lemma 1 forbids the
   split. *)
let test_all_in_two_conjunctions_not_pushed () =
  let db = Fixtures.make () in
  let q =
    {
      free = [ ("e", base "employees") ];
      select = [ ("e", "enr") ];
      body =
        f_all "p" (base "papers")
          (f_or
             (f_and (eq (attr "p" "penr") (attr "e" "enr")) (eq (attr "e" "estatus") (const (Workload.Queries.professor db))))
             (f_and (ne (attr "p" "penr") (attr "e" "enr")) (lt (attr "e" "enr") (cint 3))));
    }
  in
  let plan = prepare_plan db q Strategy.s12 in
  (* sanity: p occurs in both conjunctions *)
  let p_conjs =
    List.filter
      (fun c -> Var_set.mem "p" (Plan.conj_vars c))
      plan.Plan.conjs
  in
  Alcotest.(check int) "p in two conjunctions" 2 (List.length p_conjs);
  let pushed = prepare_plan db q Strategy.s1234 in
  Alcotest.(check int) "p stays in the prefix" 1
    (List.length pushed.Plan.prefix);
  (* A SOME variable in two conjunctions IS pushable. *)
  let q_some =
    { q with body = (match q.body with
        | F_all (v, r, f) -> F_some (v, r, f)
        | f -> f) }
  in
  let pushed_some = prepare_plan db q_some Strategy.s1234 in
  Alcotest.(check int) "SOME p leaves the prefix" 0
    (List.length pushed_some.Plan.prefix);
  (* Both agree with naive regardless. *)
  List.iter
    (fun query ->
      Alcotest.(check bool) "correct" true
        (Relation.equal_set (Naive_eval.run db query)
           (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db query)))
    [ q; q_some ]

(* Swapping: SOME/ALL that share a conjunction must not swap; the
   movability check blocks the push of the non-rightmost variable. *)
let test_dependent_quantifiers_not_swapped () =
  let db = Fixtures.make () in
  (* ALL p SOME t with p and t in the same conjunction: t (rightmost) is
     pushable, after which p's conjunction shape decides p. *)
  let q =
    {
      free = [ ("e", base "employees") ];
      select = [ ("e", "enr") ];
      body =
        f_all "p" (base "papers")
          (f_some "t" (base "timetable")
             (f_and
                (eq (attr "t" "tenr") (attr "p" "penr"))
                (eq (attr "p" "penr") (attr "e" "enr"))));
    }
  in
  let plan0 = prepare_plan db q Strategy.s12 in
  (match plan0.Plan.prefix with
  | [ a; b ] ->
    Alcotest.(check bool) "p before t" true
      (String.equal a.Normalize.v "p" && String.equal b.Normalize.v "t");
    (* p cannot move right past t: they share a conjunction and have
       different quantifiers. *)
    Alcotest.(check bool) "p not movable" false
      (Quant_push.movable_to_rightmost plan0 plan0.Plan.prefix a);
    Alcotest.(check bool) "t trivially movable" true
      (Quant_push.movable_to_rightmost plan0 plan0.Plan.prefix b)
  | _ -> Alcotest.fail "expected two prefix entries");
  Alcotest.(check bool) "correct" true
    (Relation.equal_set (Naive_eval.run db q)
       (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q))

(* Example 4.7's nesting: pushing c, then t, then p produces a derived
   predicate on t that nests c's. *)
let test_nested_pushes_example_4_7 () =
  let db = Fixtures.make () in
  let q = Workload.Queries.example_4_7 db in
  let plan = prepare_plan db q Strategy.s1234 in
  Alcotest.(check int) "prefix emptied" 0 (List.length plan.Plan.prefix);
  (* One conjunction carries a derived SOME-t predicate whose nested
     list contains the SOME-c predicate (tset built from cset). *)
  let nested_found =
    List.exists
      (fun (c : Plan.conj) ->
        List.exists
          (fun ((_, p) : var * Plan.pushed) ->
            String.equal p.Plan.p_var "t" && p.Plan.p_nested <> [])
          c.Plan.derived)
      plan.Plan.conjs
  in
  Alcotest.(check bool) "t's predicate nests c's (cset within tset)" true
    nested_found

(* The pushed plan's value lists choose the paper's storage policies. *)
let test_storage_policies_via_pipeline () =
  let db = Workload.University.generate Workload.University.small_params in
  let check q expect_max =
    let report = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q in
    let vlist_total =
      List.fold_left
        (fun acc (key, size) ->
          if String.length key >= 6 && String.sub key 0 6 = "vlist:" then
            acc + size
          else acc)
        0 report.Exec_result.intermediates
    in
    Alcotest.(check bool)
      (Printf.sprintf "stored %d <= %d" vlist_total expect_max)
      true
      (vlist_total <= expect_max && vlist_total > 0)
  in
  check (Workload.Queries.minmax_some_query db) 2;
  check (Workload.Queries.minmax_all_query db) 2;
  check (Workload.Queries.all_eq_query db) 1;
  check (Workload.Queries.some_ne_query db) 1

(* --- Absorption: ALL pushed after its derived-only conjunctions move
   into its range (S3's ALL identity applied after S4). *)

let suppliers ?(prob_red = 0.35) ?(n_shipments = 120) seed =
  Workload.Suppliers.generate
    {
      (Workload.Suppliers.scaled ~seed 1) with
      Workload.Suppliers.prob_red;
      n_shipments;
    }

let color db name = Value.enum (Database.find_enum db "colortype") name

(* Delete every shipment of a red part: red parts exist, yet h's range
   filtered by "ships a red part" is empty. *)
let unship_red db =
  let parts = Database.find_relation db "parts"
  and shipments = Database.find_relation db "shipments" in
  let red = color db "red" in
  let is_red pnr =
    match Relation.find_key parts [ pnr ] with
    | Some t -> Value.equal (Tuple.get t 2) red
    | None -> false
  in
  List.iter
    (fun t ->
      if is_red (Tuple.get t 1) then
        Relation.delete_key shipments [ Tuple.get t 0; Tuple.get t 1 ])
    (Relation.to_list shipments);
  db

let s1234 = Exec_opts.make ~strategy:Strategy.s1234 ()

(* "No red part": p is pushed, the conjunction holding p's derived
   predicate is absorbed into h's range, and h is pushed too — one
   value-list scan each of parts, shipments and suppliers, and no
   combination-phase join or division. *)
let test_no_red_part_absorbed () =
  List.iter
    (fun scale ->
      let db = Workload.Suppliers.generate (Workload.Suppliers.scaled scale) in
      let q = Workload.Suppliers.ships_no_red_part db in
      let plan = prepare_plan db q Strategy.s1234 in
      Alcotest.(check int) "prefix emptied" 0 (List.length plan.Plan.prefix);
      (match plan.Plan.conjs with
      | [ { Plan.atoms = []; derived = [ ("s", p) ] } ] ->
        Alcotest.(check string) "h pushed onto s" "h" p.Plan.p_var;
        Alcotest.(check int) "h's range carries the filter" 1
          (List.length p.Plan.p_filter)
      | _ -> Alcotest.failf "scale %d: expected one derived predicate on s" scale);
      Alcotest.(check (list string)) "absorbed" [ "h" ]
        (Quant_push.absorbed_vars plan);
      Database.reset_counters db;
      Collection.run (Collection.create db Strategy.s1234 plan);
      Alcotest.(check int) "collection scans" 3 (Database.total_scans db);
      let report = exec_q_report ~opts:s1234 db q in
      let n_suppliers =
        Relation.cardinality (Database.find_relation db "suppliers")
      in
      Alcotest.(check bool)
        (Printf.sprintf "max_ntuple %d <= %d" report.Exec_result.max_ntuple
           n_suppliers)
        true
        (report.Exec_result.max_ntuple <= n_suppliers);
      Helpers.check_same_result "= naive" (Naive_eval.run db q)
        report.Exec_result.result)
    [ 1; 2; 4 ]

(* The absorbed conjunction's derived predicate carries a monadic term
   (p.pweight > 10), so its negation is not a plain join term: h stays
   in the prefix. *)
let test_absorb_needs_bare_join_term () =
  let db = suppliers 7 in
  let q =
    {
      free = [ ("s", base "suppliers") ];
      select = [ ("s", "sname") ];
      body =
        f_all "h" (base "shipments")
          (f_or
             (ne (attr "h" "hsnr") (attr "s" "snr"))
             (f_all "p" (base "parts")
                (f_and
                   (ne (attr "p" "pnr") (attr "h" "hpnr"))
                   (gt (attr "p" "pweight") (cint 10)))));
    }
  in
  let plan = prepare_plan db q Strategy.s1234 in
  let monadic_p =
    List.exists
      (fun (c : Plan.conj) ->
        List.exists
          (fun ((_, p) : var * Plan.pushed) ->
            String.equal p.Plan.p_var "p" && p.Plan.p_monadic <> [])
          c.Plan.derived)
      plan.Plan.conjs
  in
  Alcotest.(check bool) "p pushed with a monadic term" true monadic_p;
  Alcotest.(check (list string)) "h stays in the prefix" [ "h" ]
    (List.map (fun (e : Normalize.prefix_entry) -> e.Normalize.v) plan.Plan.prefix);
  Helpers.check_same_result "= naive" (Naive_eval.run db q) (exec_q ~opts:s1234 db q)

(* The kept conjunction holds an atom without h (s.scity = london).  If
   h's filtered range is empty the quantifier is true whatever that
   atom says, so pulling it out would be wrong: h stays in the prefix.
   With no red part shipped, the range is empty and every supplier
   qualifies. *)
let test_absorb_keeps_foreign_atoms_inside () =
  let db = unship_red (suppliers 7) in
  let q =
    {
      free = [ ("s", base "suppliers") ];
      select = [ ("s", "sname") ];
      body =
        f_all "h" (base "shipments")
          (f_or
             (f_and
                (ne (attr "h" "hsnr") (attr "s" "snr"))
                (eq (attr "s" "scity") (const (Workload.Suppliers.london db))))
             (f_not
                (f_some "p" (base "parts")
                   (f_and
                      (eq (attr "p" "pnr") (attr "h" "hpnr"))
                      (eq (attr "p" "pcolor") (const (color db "red")))))));
    }
  in
  let plan = prepare_plan db q Strategy.s1234 in
  Alcotest.(check (list string)) "nothing absorbed" []
    (Quant_push.absorbed_vars plan);
  let expected = Naive_eval.run db q in
  Alcotest.(check int) "every supplier"
    (Relation.cardinality (Database.find_relation db "suppliers"))
    (Relation.cardinality expected);
  Helpers.check_same_result "= naive" expected (exec_q ~opts:s1234 db q)

let comparisons = Value.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* Index on/off, under s1+s2+s3+s4. *)
let engine_opts =
  List.map
    (fun use_index ->
      ( Printf.sprintf "index=%b" use_index,
        Exec_opts.make ~strategy:Strategy.s1234 ~use_index () ))
    [ true; false ]

let with_indexes db =
  ignore (Database.declare_index db "parts" ~on:[ "pcolor" ] : Secondary_index.t);
  ignore
    (Database.declare_index ~kind:Secondary_index.Sorted db "shipments"
       ~on:[ "hsnr" ]
      : Secondary_index.t);
  db

(* The anti-join shapes over every operator pair:
   [NOT] SOME h (h.hsnr op1 s.snr AND SOME p (p.pnr op2 h.hpnr AND red))
   and the dual ALL h (h.hsnr op1 s.snr OR NOT SOME p (...)). *)
let anti_join_shapes db =
  let red = color db "red" in
  List.concat_map
    (fun op1 ->
      List.concat_map
        (fun op2 ->
          let inner =
            f_some "p" (base "parts")
              (f_and
                 (mk_atom (attr "p" "pnr") op2 (attr "h" "hpnr"))
                 (eq (attr "p" "pcolor") (const red)))
          in
          let join = mk_atom (attr "h" "hsnr") op1 (attr "s" "snr") in
          let q body =
            { free = [ ("s", base "suppliers") ]; select = [ ("s", "sname") ]; body }
          in
          let some = f_some "h" (base "shipments") (f_and join inner) in
          [
            q some;
            q (f_not some);
            q (f_all "h" (base "shipments") (f_or join (f_not inner)));
          ])
        comparisons)
    comparisons

(* Every anti-join shape on databases where absorbed ranges can be
   empty (no red part; one random shipment; red parts never shipped)
   and on a default one, across the engine variants, against the
   naive evaluator.  Some cases must actually fire the absorption. *)
let test_anti_join_differential () =
  let dbs =
    [
      ("no red parts (seed 1)", suppliers ~prob_red:0.0 1);
      ("no red parts (seed 2)", suppliers ~prob_red:0.0 2);
      ("one shipment (seed 3)", suppliers ~n_shipments:1 3);
      ("one shipment (seed 4)", suppliers ~n_shipments:1 4);
      ("red parts unshipped (seed 5)", unship_red (suppliers 5));
      ("default (seed 6)", suppliers 6);
    ]
  in
  let fired = ref 0 and cases = ref 0 in
  List.iter
    (fun (dname, db) ->
      let db = with_indexes db in
      List.iter
        (fun q ->
          if Quant_push.absorbed_vars (prepare_plan db q Strategy.s1234) <> []
          then incr fired;
          let expected = Naive_eval.run db q in
          List.iter
            (fun (oname, opts) ->
              incr cases;
              let got = exec_q ~opts db q in
              if not (Relation.equal_set expected got) then
                Alcotest.failf "%s, %s:@.%a@.expected %a@.got %a" dname oname
                  pp_query q Relation.pp expected Relation.pp got)
            engine_opts)
        (anti_join_shapes db))
    dbs;
  Alcotest.(check bool)
    (Printf.sprintf "absorption fired in %d of %d plans" !fired
       (!cases / List.length engine_opts))
    true (!fired > 0)

(* A $param in p's range restriction: absorption is skipped (the
   filter's emptiness is unknown at plan time), and a binding that
   empties p's range re-plans the ground query. *)
let test_anti_join_prepared_param () =
  let db = with_indexes (suppliers 8) in
  let q =
    {
      free = [ ("s", base "suppliers") ];
      select = [ ("s", "sname") ];
      body =
        f_not
          (f_some "h" (base "shipments")
             (f_and
                (eq (attr "h" "hsnr") (attr "s" "snr"))
                (f_some "p"
                   (restricted "parts" "p" (gt (attr "p" "pweight") (param "w")))
                   (eq (attr "p" "pnr") (attr "h" "hpnr")))));
    }
  in
  List.iter
    (fun (oname, opts) ->
      let prep = Session.prepare ~opts (Session.create db) q in
      Alcotest.(check (list string)) "params skip absorption" []
        (Quant_push.absorbed_vars (Prepared.plan prep));
      List.iter
        (fun w ->
          let b = Var_map.add "w" (Value.int w) Var_map.empty in
          let report = Prepared.exec_report ~params:[ ("w", Value.int w) ] prep in
          let msg = Printf.sprintf "%s, $w = %d" oname w in
          Helpers.check_same_result msg
            (Naive_eval.run db (subst_query b q))
            report.Exec_result.result;
          if w >= 100 then
            Alcotest.(check string) (msg ^ ": reground") "reground"
              (Exec_result.cache_outcome_to_string report.Exec_result.cache))
        [ 0; 50; 100 ])
    engine_opts

(* Two derived predicates identical but for their range filter must not
   share a memoized value list: the memo key includes the filter. *)
let test_filter_in_memo_key () =
  let db = suppliers 9 in
  let no_part_of colour =
    f_not
      (f_some "h" (base "shipments")
         (f_and
            (eq (attr "h" "hsnr") (attr "s" "snr"))
            (f_some "p" (base "parts")
               (f_and
                  (eq (attr "p" "pnr") (attr "h" "hpnr"))
                  (eq (attr "p" "pcolor") (const (color db colour)))))))
  in
  let q_red = Workload.Suppliers.ships_no_red_part db in
  let plan = prepare_plan db q_red Strategy.s1234 in
  let green_parts =
    restricted "parts" "p" (eq (attr "p" "pcolor") (const (color db "green")))
  in
  let conj, green =
    match plan.Plan.conjs with
    | [ ({ Plan.derived = [ (vm, d) ]; _ } as c) ] ->
      let recolour (f : Plan.pushed) = { f with Plan.p_range = green_parts } in
      let d = { d with Plan.p_filter = List.map recolour d.Plan.p_filter } in
      (c, { Plan.atoms = []; derived = [ (vm, d) ] })
    | _ -> Alcotest.fail "expected one derived predicate on s"
  in
  let plan = { plan with Plan.conjs = [ conj; green ] } in
  let coll = Collection.create db Strategy.s1234 plan in
  Collection.run coll;
  let result = Construction.run db plan (Combination.evaluate coll plan) in
  let h_keys =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"vlist:ALL:h:" k)
      (Collection.intermediate_sizes coll)
  in
  Alcotest.(check int) "two value lists for h" 2 (List.length h_keys);
  let q = { q_red with body = f_or (no_part_of "red") (no_part_of "green") } in
  Helpers.check_same_result "= naive" (Naive_eval.run db q) result

let suite =
  [
    ( "quant_push",
      [
        Alcotest.test_case "SOME single dyadic pushed" `Quick
          test_some_single_dyadic_pushed;
        Alcotest.test_case "operator orientation" `Quick test_orientation_flips;
        Alcotest.test_case "two dyadics not pushed" `Quick
          test_two_dyadics_not_pushed;
        Alcotest.test_case "ALL in two conjunctions not pushed (Lemma 1)"
          `Quick test_all_in_two_conjunctions_not_pushed;
        Alcotest.test_case "dependent quantifiers not swapped" `Quick
          test_dependent_quantifiers_not_swapped;
        Alcotest.test_case "nested pushes (Example 4.7)" `Quick
          test_nested_pushes_example_4_7;
        Alcotest.test_case "storage policies" `Quick
          test_storage_policies_via_pipeline;
        Alcotest.test_case "no red part: h pushed after absorption" `Quick
          test_no_red_part_absorbed;
        Alcotest.test_case "absorption needs a bare join term" `Quick
          test_absorb_needs_bare_join_term;
        Alcotest.test_case "absorption keeps foreign atoms inside" `Quick
          test_absorb_keeps_foreign_atoms_inside;
        Alcotest.test_case "anti-join shapes = naive, all operators" `Slow
          test_anti_join_differential;
        Alcotest.test_case "anti-join with a $param range" `Quick
          test_anti_join_prepared_param;
        Alcotest.test_case "range filter is part of the memo key" `Quick
          test_filter_in_memo_key;
      ] );
  ]
