open Pascalr
open Relalg

let test_stats_collection () =
  let db = Fixtures.make () in
  let stats = Stats.collect db in
  Alcotest.(check int) "employees cardinality" 4
    (Stats.cardinality stats "employees");
  let enr = Stats.attr stats "employees" "enr" in
  Alcotest.(check int) "enr distinct" 4 enr.Stats.a_distinct;
  Alcotest.(check (option Helpers.value))
    "enr min" (Some (Value.int 1)) enr.Stats.a_min;
  Alcotest.(check (option Helpers.value))
    "enr max" (Some (Value.int 4)) enr.Stats.a_max;
  let status = Stats.attr stats "employees" "estatus" in
  Alcotest.(check int) "status distinct" 2 status.Stats.a_distinct

let test_selectivities () =
  let db = Fixtures.make () in
  let stats = Stats.collect db in
  let s_eq = Stats.monadic_selectivity stats "employees" "enr" Value.Eq (Value.int 2) in
  Alcotest.(check bool) "eq selectivity = 1/4" true (abs_float (s_eq -. 0.25) < 1e-9);
  let s_ne = Stats.monadic_selectivity stats "employees" "enr" Value.Ne (Value.int 2) in
  Alcotest.(check bool) "ne selectivity = 3/4" true (abs_float (s_ne -. 0.75) < 1e-9);
  let s_lt = Stats.monadic_selectivity stats "employees" "enr" Value.Lt (Value.int 3) in
  Alcotest.(check bool) "lt selectivity in (0,1)" true (s_lt > 0.0 && s_lt < 1.0);
  let j = Stats.join_selectivity stats "employees" "enr" "timetable" "tenr" in
  Alcotest.(check bool) "join selectivity positive" true (j > 0.0 && j <= 1.0)

let test_cost_monotone_in_strategies () =
  (* The estimated combination volume of the S3-transformed plan is no
     larger than the bare plan's. *)
  let db = Workload.University.generate Workload.University.small_params in
  let stats = Stats.collect db in
  let q = Workload.Queries.running_query db in
  let sf = Standard_form.compile db q in
  let bare = Cost.estimate stats (Plan.of_standard_form sf) in
  let s3 = Cost.estimate stats (Plan.of_standard_form (Range_ext.apply db sf)) in
  Alcotest.(check bool)
    (Printf.sprintf "S3 estimate (%.0f) <= bare (%.0f)" s3.Cost.e_combination
       bare.Cost.e_combination)
    true
    (s3.Cost.e_combination <= bare.Cost.e_combination)

let test_planner_chooses_everything_for_running_query () =
  let db = Workload.University.generate Workload.University.small_params in
  let q = Workload.Queries.running_query db in
  let d = Planner.choose db q in
  Alcotest.(check bool) "S1 on" true d.Planner.d_strategy.Strategy.parallel_scan;
  Alcotest.(check bool) "S2 on" true d.Planner.d_strategy.Strategy.monadic_restrict;
  Alcotest.(check bool) "S3 on" true d.Planner.d_strategy.Strategy.range_extension;
  Alcotest.(check bool)
    "after estimate <= before estimate" true
    (d.Planner.d_after.Cost.e_combination
    <= d.Planner.d_before.Cost.e_combination)

let test_planner_skips_s4_when_inapplicable () =
  (* Two dyadic terms over the same quantified variable in one
     conjunction: not pushable. *)
  let db = Workload.University.generate Workload.University.small_params in
  let open Pascalr.Calculus in
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
  let d = Planner.choose db q in
  Alcotest.(check bool) "S4 off" false
    d.Planner.d_strategy.Strategy.quantifier_push

let test_planner_result_correct () =
  let db = Workload.University.generate Workload.University.small_params in
  List.iter
    (fun q ->
      let _, result = Planner.run db q in
      let expected = Naive_eval.run db q in
      Alcotest.(check bool) "planner result = naive" true
        (Relation.equal_set expected result))
    [
      Workload.Queries.running_query db;
      Workload.Queries.universal_query db;
      Workload.Queries.minmax_all_query db;
    ]

let test_explain_output () =
  let db = Fixtures.make () in
  let q = Workload.Queries.example_4_7 db in
  let text = Explain.explain ~strategy:Strategy.s1234 db q in
  (* The S4 pipeline must mention value lists and the three phases. *)
  Alcotest.(check bool) "mentions vlist" true (Helpers.contains text "vlist_");
  Alcotest.(check bool) "mentions collection" true
    (Helpers.contains text "collection phase");
  Alcotest.(check bool) "mentions construction" true
    (Helpers.contains text "construction phase")

(* "No red part": the S4 reason names h, pushed after absorption; the
   after-estimate is the single supplier list; explain shows h's
   filtered range and neither an indirect join nor a division. *)
let test_absorbed_push_reported () =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled 2) in
  let q = Workload.Suppliers.ships_no_red_part db in
  let d = Planner.choose db q in
  let s4 = List.assoc "S4" d.Planner.d_reasons in
  Alcotest.(check bool) ("S4 reason names h: " ^ s4) true
    (Helpers.contains s4 "ALL h pushed after absorbing");
  Alcotest.(check bool) "after estimate <= |suppliers|" true
    (d.Planner.d_after.Cost.e_combination
    <= float_of_int (Relation.cardinality (Database.find_relation db "suppliers")));
  let text = Explain.explain ~strategy:Strategy.s1234 db q in
  Alcotest.(check bool) "filtered range" true
    (Helpers.contains text "values of h.hsnr over [EACH h IN shipments: SOME p IN");
  Alcotest.(check bool) "no division" false (Helpers.contains text "DIVIDED BY");
  Alcotest.(check bool) "no indirect join" false
    (Helpers.contains text "indirect join")

let suite =
  [
    ( "planner",
      [
        Alcotest.test_case "statistics collection" `Quick test_stats_collection;
        Alcotest.test_case "selectivities" `Quick test_selectivities;
        Alcotest.test_case "cost monotone under S3" `Quick
          test_cost_monotone_in_strategies;
        Alcotest.test_case "planner enables strategies" `Quick
          test_planner_chooses_everything_for_running_query;
        Alcotest.test_case "planner skips S4 when inapplicable" `Quick
          test_planner_skips_s4_when_inapplicable;
        Alcotest.test_case "planner result correct" `Quick
          test_planner_result_correct;
        Alcotest.test_case "explain output" `Quick test_explain_output;
        Alcotest.test_case "absorbed ALL push reported" `Quick
          test_absorbed_push_reported;
      ] );
  ]
