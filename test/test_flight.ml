(* The flight-recorder subsystem: cumulative per-digest query stats
   recorded by the Session front door, the bounded execution ring,
   slow-query arming and one-shot trace capture, the Chrome
   trace-event exporter, and the zero-division guards on the two
   hit-rate ratios.

   Every test that touches the global recorder or the slow threshold
   restores them: the analyze golden test (same process) pins
   [flight_recorder.slow_ms] as null. *)

open Relalg
open Pascalr

let mk_db () = Workload.Suppliers.generate Workload.Suppliers.default_params

let clean_slate () =
  Obs.Query_stats.reset ();
  Obs.Flight_recorder.reset ();
  Obs.Flight_recorder.set_slow_ms None

(* ---------------------------------------------------------------- *)
(* Cumulative query stats through Session.exec: calls, hits, replans,
   rows and a monotone bounded latency histogram. *)

let test_stats_accumulate () =
  clean_slate ();
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_parts db in
  let s = Session.create db in
  let digest = Session.digest q in
  let rows = ref 0 in
  for _ = 1 to 4 do
    rows := Relation.cardinality (Session.exec s q)
  done;
  (match Obs.Query_stats.find digest with
  | None -> Alcotest.fail "no entry for the executed digest"
  | Some e ->
    Alcotest.(check int) "four calls" 4 e.Obs.Query_stats.qs_calls;
    Alcotest.(check int) "first call replans, rest hit" 3
      e.Obs.Query_stats.qs_cache_hits;
    Alcotest.(check int) "exactly one replan" 1 e.Obs.Query_stats.qs_replans;
    Alcotest.(check int) "rows accumulate over calls" (4 * !rows)
      e.Obs.Query_stats.qs_rows;
    let h = e.Obs.Query_stats.qs_latency in
    Alcotest.(check int) "one latency sample per call" 4 (Obs.Histogram.count h);
    let p50 = Obs.Histogram.quantile h 0.5
    and p95 = Obs.Histogram.quantile h 0.95
    and p99 = Obs.Histogram.quantile h 0.99 in
    Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
    Alcotest.(check bool) "quantiles bounded by min/max" true
      (Obs.Histogram.min_value h <= p50 && p99 <= Obs.Histogram.max_value h);
    Alcotest.(check bool) "phase split is non-negative" true
      (e.Obs.Query_stats.qs_collection_ms >= 0.0
      && e.Obs.Query_stats.qs_combination_ms >= 0.0
      && e.Obs.Query_stats.qs_construction_ms >= 0.0);
    Test_obs.validate_json
      (Obs.Json.to_string (Obs.Query_stats.entry_to_json e)));
  (* The ring saw the same four executions, newest first. *)
  Alcotest.(check int) "flight recorder holds the four runs" 4
    (Obs.Flight_recorder.total_recorded ());
  (match Obs.Flight_recorder.recent ~n:1 () with
  | [ r ] ->
    Alcotest.(check string) "ring record carries the digest" digest
      r.Obs.Flight_recorder.fr_digest;
    Alcotest.(check int) "ring record carries the rows" !rows
      r.Obs.Flight_recorder.fr_rows
  | _ -> Alcotest.fail "expected one recent record");
  Test_obs.validate_json
    (Obs.Json.to_string (Obs.Flight_recorder.to_json ~n:8 ()));
  clean_slate ()

(* A prepared query records at exec time: the prepare itself is not a
   call, and grounding a parameter counts as a replan, not a hit. *)
let test_stats_prepared () =
  clean_slate ();
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_red_parts db in
  let s = Session.create db in
  let prep = Session.prepare s q in
  Alcotest.(check bool) "prepare alone records nothing" true
    (Obs.Query_stats.find (Prepared.digest prep) = None);
  ignore (Prepared.exec prep);
  ignore (Prepared.exec prep);
  (match Obs.Query_stats.find (Prepared.digest prep) with
  | None -> Alcotest.fail "prepared executions missing from stats"
  | Some e ->
    Alcotest.(check int) "two calls" 2 e.Obs.Query_stats.qs_calls;
    Alcotest.(check int) "both reuse the prepared plan" 2
      e.Obs.Query_stats.qs_cache_hits);
  clean_slate ()

(* ---------------------------------------------------------------- *)
(* Ring bounds: wrap-around keeps the newest records and counts what
   fell off. *)

let synthetic digest =
  {
    Obs.Flight_recorder.fr_digest = digest;
    fr_opts = "test";
    fr_wall_ms = 1.0;
    fr_collection_ms = 0.4;
    fr_combination_ms = 0.4;
    fr_construction_ms = 0.2;
    fr_rows = 1;
    fr_scans = 2;
    fr_probes = 3;
    fr_index_probes = 0;
    fr_pool_fetches = 0;
  }

let digests rs =
  List.map (fun r -> r.Obs.Flight_recorder.fr_digest) rs

let test_ring_bounds () =
  clean_slate ();
  let old_cap = Obs.Flight_recorder.capacity () in
  Obs.Flight_recorder.set_capacity 4;
  for i = 1 to 7 do
    Obs.Flight_recorder.record (synthetic (Printf.sprintf "d%d" i))
  done;
  Alcotest.(check int) "total counts overwritten records" 7
    (Obs.Flight_recorder.total_recorded ());
  Alcotest.(check int) "three records fell off" 3
    (Obs.Flight_recorder.dropped ());
  Alcotest.(check (list string)) "newest first, oldest dropped"
    [ "d7"; "d6"; "d5"; "d4" ]
    (digests (Obs.Flight_recorder.recent ()));
  Alcotest.(check (list string)) "n limits the slice"
    [ "d7"; "d6" ]
    (digests (Obs.Flight_recorder.recent ~n:2 ()));
  Test_obs.validate_json
    (Obs.Json.to_string
       (Obs.Flight_recorder.record_to_json (synthetic "d7")));
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Flight_recorder.set_capacity") (fun () ->
      Obs.Flight_recorder.set_capacity 0);
  Obs.Flight_recorder.set_capacity old_cap;
  clean_slate ()

(* ---------------------------------------------------------------- *)
(* Slow-query capture: crossing the threshold arms the digest, the
   next execution is traced exactly once, and the captured span
   exports as valid Chrome trace-event JSON. *)

let test_slow_capture () =
  clean_slate ();
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_parts db in
  let s = Session.create db in
  let digest = Session.digest q in
  Obs.Flight_recorder.set_slow_ms (Some 0.0);
  ignore (Session.exec s q);
  Alcotest.(check bool) "crossing the threshold arms the digest" true
    (Obs.Flight_recorder.armed digest);
  Alcotest.(check int) "nothing captured yet" 0
    (List.length (Obs.Flight_recorder.slow_traces ()));
  ignore (Session.exec s q);
  Alcotest.(check bool) "capture disarms (one trace per offender)" false
    (Obs.Flight_recorder.armed digest);
  (match Obs.Flight_recorder.slow_traces () with
  | [ (d, span) ] ->
    Alcotest.(check string) "trace keyed by the digest" d digest;
    Alcotest.(check string) "root span is the query" "query"
      span.Obs.Trace.sp_name;
    Alcotest.(check bool) "trace has phase children" true
      (Obs.Trace.find span "collection" <> None);
    (* Chrome export: a flat list of complete events with ts/dur. *)
    let chrome = Obs.Trace.to_chrome span in
    Test_obs.validate_json (Obs.Json.to_string chrome);
    (match chrome with
    | Obs.Json.List events ->
      Alcotest.(check bool) "at least the root event" true
        (List.length events >= 1);
      List.iter
        (fun ev ->
          Alcotest.(check bool) "every event is complete (ph=X)" true
            (Obs.Json.member "ph" ev = Some (Obs.Json.Str "X"));
          let non_negative field =
            match Obs.Json.member field ev with
            | Some (Obs.Json.Float v) -> v >= 0.0
            | Some (Obs.Json.Int v) -> v >= 0
            | _ -> false
          in
          Alcotest.(check bool) "ts and dur present, microseconds >= 0"
            true
            (non_negative "ts" && non_negative "dur"))
        events
    | _ -> Alcotest.fail "chrome export is not a flat event list")
  | ts ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one slow trace, got %d"
         (List.length ts)));
  clean_slate ()

(* ---------------------------------------------------------------- *)
(* Ratio guards: both hit rates answer 0.0 — never NaN — on a
   zero-access window. *)

let test_hit_rate_guards () =
  let bp0 =
    { Buffer_pool.fetches = 0; misses = 0; evictions = 0; invalidations = 0 }
  in
  Alcotest.(check (float 0.0)) "buffer pool: no fetches -> 0.0" 0.0
    (Buffer_pool.hit_rate bp0);
  let bp =
    { Buffer_pool.fetches = 8; misses = 2; evictions = 0; invalidations = 0 }
  in
  Alcotest.(check (float 1e-9)) "buffer pool: 6 of 8 hit" 0.75
    (Buffer_pool.hit_rate bp);
  let pc0 =
    { Plan_cache.hits = 0; misses = 0; evictions = 0; invalidations = 0 }
  in
  Alcotest.(check (float 0.0)) "plan cache: no lookups -> 0.0" 0.0
    (Plan_cache.hit_rate pc0);
  let pc =
    { Plan_cache.hits = 3; misses = 1; evictions = 0; invalidations = 0 }
  in
  Alcotest.(check (float 1e-9)) "plan cache: 3 of 4 lookups hit" 0.75
    (Plan_cache.hit_rate pc)

let suite =
  [
    ( "flight",
      [
        Alcotest.test_case "session executions accumulate query stats"
          `Quick test_stats_accumulate;
        Alcotest.test_case "prepared queries record at exec time" `Quick
          test_stats_prepared;
        Alcotest.test_case "ring wrap keeps newest, counts dropped" `Quick
          test_ring_bounds;
        Alcotest.test_case "slow queries arm, capture once, export Chrome"
          `Quick test_slow_capture;
        Alcotest.test_case "hit rates are 0.0 on zero accesses" `Quick
          test_hit_rate_guards;
      ] );
  ]
