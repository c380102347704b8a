(* The vectorized batch execution layer: window-boundary edge cases on
   the stream kernels (empty source, all-false selection, batch larger
   than the input, windows that don't divide the cardinality), and the
   QCheck differential pinning the batch-independence contract — the
   batched engine must produce the scalar engine's result set for every
   batch size and strategy preset, with identical iteration
   order whenever the query involves no universal quantification (the
   columnar divide is documented to reorder only the quotient). *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q

module Stream = Algebra.Stream

let seq_of r = List.rev (Relation.fold (fun acc t -> t :: acc) [] r)

let check_same_relation label a b =
  Alcotest.(check (list Helpers.tuple))
    (label ^ ": iteration order") (seq_of a) (seq_of b);
  Alcotest.(check (list Helpers.tuple))
    (label ^ ": sorted contents") (Relation.to_list a) (Relation.to_list b)

let pair_rel name cols rows =
  Relation.of_list ~name
    (Schema.make (List.map (fun c -> Schema.attr c Vtype.int_full) cols) ~key:[])
    (List.map (fun (a, b) -> Tuple.of_list [ Value.int a; Value.int b ]) rows)

(* One representative chain exercising every kernel: filter, project
   with duplicates, dedup, and a hash join against a build relation. *)
let chain build src =
  let s = Stream.of_relation src in
  let s =
    Stream.select (fun t -> Value.compare (Tuple.get t 1) (Value.int 3) >= 0) s
  in
  let s = Stream.project s [ "x" ] in
  let s = Stream.dedup s in
  Stream.natural_join s build

(* --------------------------------------------------------------- *)
(* Window-boundary units: each scalar materialize (the oracle) against
   a sweep of batch sizes, including sizes that don't divide the
   input, exceed it, or meet an empty stream. *)

let batch_sweep label src mk =
  let scalar = Stream.materialize ~batch_size:1 (mk src) in
  List.iter
    (fun bs ->
      let batched = Stream.materialize ~batch_size:bs (mk src) in
      check_same_relation (Printf.sprintf "%s (batch_size %d)" label bs)
        scalar batched)
    [ 2; 3; 7; 64; 100_000 ]

let test_boundaries () =
  let build =
    pair_rel "b" [ "x"; "z" ] (List.init 9 (fun i -> (i mod 5, i * 10)))
  in
  let mk src = chain build src in
  batch_sweep "empty source" (pair_rel "e" [ "x"; "y" ] []) mk;
  batch_sweep "all rows filtered out"
    (pair_rel "f" [ "x"; "y" ] (List.init 10 (fun i -> (i, -1))))
    mk;
  batch_sweep "batch larger than input"
    (pair_rel "g" [ "x"; "y" ] (List.init 4 (fun i -> (i, i + 3))))
    mk;
  batch_sweep "non-multiple cardinality"
    (pair_rel "h" [ "x"; "y" ] (List.init 10 (fun i -> (i mod 6, i))))
    mk

let test_product_and_semijoin_windows () =
  let src = pair_rel "s" [ "x"; "y" ] (List.init 10 (fun i -> (i mod 4, i))) in
  (* disjoint columns: the join degenerates to a product *)
  let prod = pair_rel "p" [ "u"; "v" ] (List.init 3 (fun i -> (i, i + 50))) in
  batch_sweep "product windows" src (fun s ->
      Stream.natural_join (Stream.of_relation s) prod);
  (* no new columns: the join degenerates to a semijoin filter *)
  let semi = pair_rel "m" [ "x"; "y" ] [ (1, 1); (2, 4); (7, 7) ] in
  batch_sweep "semijoin windows" src (fun s ->
      Stream.natural_join (Stream.of_relation s) semi)

(* --------------------------------------------------------------- *)
(* Whole-pipeline batch-independence: the differential of the issue.
   The scalar engine (batch_size = 1) is the oracle; the batched
   engine must agree for small windows (many boundaries) and the
   default window — across every strategy preset.
   Result sets must match always; iteration order must also match
   unless the query can involve universal quantification (negation
   included: adaptation rewrites NOT-EXISTS into ALL), where the
   columnar divide reorders only the quotient relation. *)

let rec order_exact_formula = function
  | Calculus.F_true | Calculus.F_false | Calculus.F_atom _ -> true
  | Calculus.F_not _ | Calculus.F_all _ -> false
  | Calculus.F_and (a, b) | Calculus.F_or (a, b) ->
    order_exact_formula a && order_exact_formula b
  | Calculus.F_some (_, _, f) -> order_exact_formula f

let order_exact (q : Calculus.query) = order_exact_formula q.Calculus.body

let batch_independent_on seed =
  let db = Workload.Random_query.tiny_db ((seed * 7919) + 3) in
  let q = Workload.Random_query.generate db (seed + 17) in
  match Wellformed.check_query db q with
  | Error _ -> true (* generator contract tested elsewhere *)
  | Ok () ->
    List.for_all
      (fun (sname, strategy) ->
        let run batch_size =
          exec_q ~opts:(Exec_opts.make ~strategy ~batch_size ()) db q
        in
        let reference = run 1 in
        List.for_all
          (fun batch_size ->
            let r = run batch_size in
            let sets_equal =
              List.equal Tuple.equal (Relation.to_list reference)
                (Relation.to_list r)
            in
            let order_ok =
              (not (order_exact q))
              || List.equal Tuple.equal (seq_of reference) (seq_of r)
            in
            (sets_equal && order_ok)
            ||
            QCheck.Test.fail_reportf
              "batch_size=%d diverges from scalar under %s, seed %d \
               (%s):@.%a@.scalar %a@.got %a"
              batch_size sname seed
              (if sets_equal then "iteration order" else "result set")
              Calculus.pp_query q Relation.pp reference Relation.pp r)
          [ 3; 2048; 4 ])
      Strategy.all_presets

let test_batch_differential =
  QCheck.Test.make
    ~name:
      "random queries: batched engine matches scalar result set (and order \
       without ALL)"
    ~count:60
    QCheck.(make Gen.(int_range 0 100_000))
    batch_independent_on

(* --------------------------------------------------------------- *)
(* Counters and options plumbing *)

let test_batch_counters_move () =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:5 1) in
  let q = Workload.Suppliers.ships_no_red_part db in
  let run batch_size =
    let before = Obs.Metrics.counter_value "algebra.batch.rows_in" in
    ignore
      (exec_q
         ~opts:(Exec_opts.make ~strategy:Strategy.s123 ~batch_size ())
         db q);
    Obs.Metrics.counter_value "algebra.batch.rows_in" - before
  in
  Alcotest.(check int) "scalar execution feeds no batch kernels" 0 (run 1);
  Alcotest.(check bool) "batched execution counts kernel input rows" true
    (run 256 > 0)

let test_fingerprint_distinguishes_batch_size () =
  let fp batch_size =
    Exec_opts.fingerprint (Exec_opts.make ~batch_size ())
  in
  Alcotest.(check bool) "batch_size in the plan-cache key" true
    (fp 1 <> fp 2048)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "kernel chains at window boundaries" `Quick
          test_boundaries;
        Alcotest.test_case "product/semijoin degenerate chains" `Quick
          test_product_and_semijoin_windows;
        Alcotest.test_case "batch counters move only when batched" `Quick
          test_batch_counters_move;
        Alcotest.test_case "fingerprint separates batch sizes" `Quick
          test_fingerprint_distinguishes_batch_size;
        QCheck_alcotest.to_alcotest test_batch_differential;
      ] );
  ]
