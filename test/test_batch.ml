(* The batch kernels of the combination phase's stream engine: chains
   whose sources straddle real window boundaries (empty, one short of a
   window, exactly one window, one past it, and a tail after two full
   windows) must compute, as sets, what the materialized operators of
   {!Relalg.Algebra} compute over the same inputs; and the kernel
   counters account for the rows that flow.  The whole engine is checked
   against the naive evaluator by the "random queries: all strategies =
   naive" property in test_properties.ml. *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q

module Stream = Algebra.Stream

let pair_rel name cols rows =
  Relation.of_list ~name
    (Schema.make (List.map (fun c -> Schema.attr c Vtype.int_full) cols) ~key:[])
    (List.map (fun (a, b) -> Tuple.of_list [ Value.int a; Value.int b ]) rows)

(* Source sizes around the window: every chain below is run at each. *)
let sizes =
  let w = Stream.window in
  [ 0; w - 1; w; w + 1; (2 * w) + 3 ]

(* Source rows: [x] repeats with period 37, so projections produce
   duplicates in every window and join keys recur across windows. *)
let source n = pair_rel "s" [ "x"; "y" ] (List.init n (fun i -> (i mod 37, i)))

let check_same_set label expected got =
  Alcotest.(check (list Helpers.tuple))
    label (Relation.to_list expected) (Relation.to_list got)

let test_boundaries () =
  (* Build side: some keys match several rows, some none. *)
  let build =
    pair_rel "b" [ "x"; "z" ] (List.init 50 (fun i -> ((i * 3) mod 41, i)))
  in
  List.iter
    (fun n ->
      let src = source n in
      let label what = Printf.sprintf "%s, %d source rows" what n in
      check_same_set (label "join")
        (Algebra.natural_join src build)
        (Stream.materialize (Stream.natural_join (Stream.of_relation src) build));
      check_same_set (label "join-project")
        (Algebra.project (Algebra.natural_join src build) [ "x"; "z" ])
        (Stream.materialize
           (Stream.project
              (Stream.natural_join (Stream.of_relation src) build)
              [ "x"; "z" ]));
      check_same_set (label "project-join")
        (Algebra.natural_join (Algebra.project src [ "x" ]) build)
        (Stream.materialize
           (Stream.natural_join
              (Stream.project (Stream.of_relation src) [ "x" ])
              build)))
    sizes

let test_product_and_semijoin_windows () =
  (* disjoint columns: the join degenerates to a product *)
  let prod = pair_rel "p" [ "u"; "v" ] (List.init 3 (fun i -> (i, i + 50))) in
  (* no new columns: the join degenerates to a semijoin filter *)
  let semi = pair_rel "m" [ "x"; "y" ] (List.init 40 (fun i -> (i mod 37, i * 2))) in
  List.iter
    (fun n ->
      let src = source n in
      let label what = Printf.sprintf "%s, %d source rows" what n in
      check_same_set (label "product")
        (Algebra.product src prod)
        (Stream.materialize (Stream.natural_join (Stream.of_relation src) prod));
      check_same_set (label "product-project")
        (Algebra.project (Algebra.product src prod) [ "x"; "v" ])
        (Stream.materialize
           (Stream.project (Stream.product (Stream.of_relation src) prod)
              [ "x"; "v" ]));
      check_same_set (label "semijoin")
        (Algebra.semijoin ~on:[ ("x", "x"); ("y", "y") ] src semi)
        (Stream.materialize (Stream.natural_join (Stream.of_relation src) semi)))
    sizes

(* --------------------------------------------------------------- *)
(* Counters *)

let delta counter f =
  let before = Obs.Metrics.counter_value counter in
  f ();
  Obs.Metrics.counter_value counter - before

let test_batch_counters_move () =
  let build = pair_rel "b" [ "x"; "z" ] [ (1, 10); (1, 11); (2, 20) ] in
  let n = (2 * Stream.window) + 3 in
  let src = source n in
  let chain () =
    ignore
      (Stream.materialize (Stream.natural_join (Stream.of_relation src) build)
        : Relation.t)
  in
  (* x = 1 matches twice, x = 2 once; both occur once per 37 rows. *)
  let per_period = 3 in
  let matches =
    (per_period * (n / 37))
    + (if n mod 37 > 1 then 2 else 0)
    + if n mod 37 > 2 then 1 else 0
  in
  Alcotest.(check int) "rows_in counts every source row" n
    (delta "algebra.batch.rows_in" chain);
  Alcotest.(check int) "rows_out counts the join's emitted rows" matches
    (delta "algebra.batch.rows_out" chain);
  Alcotest.(check int) "an empty source feeds no rows" 0
    (delta "algebra.batch.rows_in" (fun () ->
         ignore
           (Stream.materialize
              (Stream.natural_join (Stream.of_relation (source 0)) build)
             : Relation.t)));
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:5 1) in
  let q = Workload.Suppliers.ships_no_red_part db in
  Alcotest.(check bool) "a query's combination phase counts kernel rows" true
    (delta "algebra.batch.rows_in" (fun () ->
         ignore
           (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q
             : Relation.t))
    > 0)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "kernel chains at window boundaries" `Quick
          test_boundaries;
        Alcotest.test_case "product/semijoin degenerate chains" `Quick
          test_product_and_semijoin_windows;
        Alcotest.test_case "batch counters move only when rows flow" `Quick
          test_batch_counters_move;
      ] );
  ]
