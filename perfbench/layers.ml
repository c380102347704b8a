(* The traced pass: executions that mirror the program's own read paths
   from public functions, with a span around each layer's call, and
   the per-layer metrics computed from those spans.

   What is timed, and through which public call:
   - lang: [Pascalr_lang.Elaborate.query_of_string] (parse + elaborate);
   - planner: [Session.prepare] / [Prepared.plan] when the lookup missed
     the plan cache — the smallest public call containing
     [Session.plan_only] on the execution path; a lookup that hit stays
     in the session's self time;
   - collection, combination, construction: the three evaluation phases
     of [Prepared.exec_report_with], timed through the [Observe.clock]
     it calls around [Collection.run], [Combination.evaluate_outcome]
     and [Construction.run] ([Collection.create] runs outside the
     phases and counts as session time);
   - session: [Session.read] + [Observe.run] + the prepared execution,
     minus the spans above — snapshot pin, Observe bookkeeping, the
     plan-cache lookup and plan grounding;
   - txn: [Session.write], with its body as the child span txn.body; the
     txn self time is snapshot pin + commit (WAL append, fsync, install). *)

open Pascalr

type counts = {
  mutable scans : int;
  mutable probes : int;
  mutable join_in : int;
  mutable join_out : int;
  mutable max_ntuple : int;  (* summed over requests *)
  mutable intermediate_rows : int;
  mutable lookups : int;
  mutable hits : int;
}

let counts () =
  {
    scans = 0;
    probes = 0;
    join_in = 0;
    join_out = 0;
    max_ntuple = 0;
    intermediate_rows = 0;
    lookups = 0;
    hits = 0;
  }

let counter = Obs.Metrics.counter_value
let probes () = counter "relation.probes" + counter "secondary.probes"

(* The program's phase clock, with a span per phase and the work
   counters attributed to the phase that moved them. *)
let tracing_clock sp c (clock : Observe.clock) : Observe.clock =
  {
    Observe.time =
      (fun phase f ->
        match phase with
        | Observe.Collection ->
          let s0 = counter "relation.scans" and p0 = probes () in
          let v = Span.with_span sp "collection" (fun () -> clock.Observe.time phase f) in
          c.scans <- c.scans + counter "relation.scans" - s0;
          c.probes <- c.probes + probes () - p0;
          v
        | Observe.Combination ->
          let i0 = counter "combination.join_rows_in"
          and o0 = counter "combination.join_rows_out" in
          let v = Span.with_span sp "combination" (fun () -> clock.Observe.time phase f) in
          c.join_in <- c.join_in + counter "combination.join_rows_in" - i0;
          c.join_out <- c.join_out + counter "combination.join_rows_out" - o0;
          v
        | Observe.Construction ->
          Span.with_span sp "construction" (fun () -> clock.Observe.time phase f));
    elapsed = clock.Observe.elapsed;
  }

(* A plan-cache lookup; when it missed, its whole duration is the
   planner's. *)
let lookup sp c session f =
  let before = (Session.cache_stats session).Plan_cache.hits in
  let start = Measure.now () in
  let v = f () in
  let stop = Measure.now () in
  c.lookups <- c.lookups + 1;
  if (Session.cache_stats session).Plan_cache.hits > before then c.hits <- c.hits + 1
  else Span.add_closed sp "planner" ~start ~stop;
  v

let note c (r : Exec_result.t) =
  c.max_ntuple <- c.max_ntuple + r.Exec_result.max_ntuple;
  c.intermediate_rows <-
    c.intermediate_rows + List.fold_left (fun acc (_, n) -> acc + n) 0 r.Exec_result.intermediates

(* [Session.exec session q], layer by layer. *)
let adhoc sp c session q =
  Span.with_span sp "session" (fun () ->
      Session.read session (fun txn ->
          let view = Session.Txn.database txn in
          Observe.run ~digest:(Session.digest q)
            ~text:(Fmt.str "%a" Calculus.pp_query q)
            ~opts:Exec_opts.default
            ~rows_of:(fun r -> r.Exec_result.rows)
            (fun clock ->
              let since = Observe.window () in
              let p = lookup sp c session (fun () -> Session.prepare session q) in
              let r =
                Prepared.exec_report_with ~within:view ~since (tracing_clock sp c clock) p
              in
              note c r;
              r)))
  |> fun r -> r.Exec_result.result

(* [Prepared.exec ~params p], layer by layer. *)
let prepared sp c session p params =
  Span.with_span sp "session" (fun () ->
      Observe.run ~digest:(Prepared.digest p) ~text:(Prepared.text p) ~opts:(Prepared.opts p)
        ~rows_of:(fun r -> r.Exec_result.rows)
        (fun clock ->
          let since = Observe.window () in
          ignore (lookup sp c session (fun () -> Prepared.plan p) : Plan.t);
          let r = Prepared.exec_report_with ~params ~since (tracing_clock sp c clock) p in
          note c r;
          r))
  |> fun r -> r.Exec_result.result

(* [Session.write session body], with the body as its own span. *)
let write sp session body =
  Span.with_span sp "txn" (fun () ->
      Session.write session (fun txn -> Span.with_span sp "txn.body" (fun () -> body txn)))

(* --- Paired replay ------------------------------------------------------ *)

(* The traced replay runs every request twice, back to back: untraced
   and as one traced request, alternating which goes first so that
   neither half always finds the caches warmed by the other.  Host speed
   drifts by more than tracing costs, so only this request-by-request
   pairing resolves the tracing overhead; the untraced half also gives
   the GC figures. *)
type pairing = {
  mutable plain_s : float;
  mutable traced_s : float;
  mutable alloc_words : float;
  mutable majors : int;
  mutable pairs : int;
  top_heap_words : int;  (* the heap high-water mark when the replay began *)
}

let pairing () =
  {
    plain_s = 0.0;
    traced_s = 0.0;
    alloc_words = 0.0;
    majors = 0;
    pairs = 0;
    top_heap_words = (Measure.gc_reading ()).Measure.g_top_heap_words;
  }

let pair paired sp ~plain ~traced =
  let run_plain () =
    let g0 = Measure.gc_reading () in
    let t0 = Measure.now () in
    let r = Common.attempt plain in
    let t1 = Measure.now () in
    let g1 = Measure.gc_reading () in
    paired.plain_s <- paired.plain_s +. (t1 -. t0);
    paired.alloc_words <-
      paired.alloc_words +. (g1.Measure.g_alloc_words -. g0.Measure.g_alloc_words);
    paired.majors <- paired.majors + (g1.Measure.g_major - g0.Measure.g_major);
    r
  in
  let run_traced () =
    let t0 = Measure.now () in
    let r = Common.attempt (fun () -> Span.request sp traced) in
    paired.traced_s <- paired.traced_s +. (Measure.now () -. t0);
    r
  in
  let plain_first = paired.pairs mod 2 = 0 in
  paired.pairs <- paired.pairs + 1;
  if plain_first then
    let a = run_plain () in
    (a, run_traced ())
  else
    let b = run_traced () in
    (run_plain (), b)

(* The untraced half's GC activity and the overhead of tracing. *)
let pairing_metrics paired =
  let n = float_of_int (max 1 paired.pairs) in
  [
    ("gc.alloc_words_per_op", paired.alloc_words /. n);
    ("gc.major_per_kop", float_of_int paired.majors *. 1000.0 /. n);
    ( "gc.top_heap_mb",
      float_of_int (paired.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ( "trace.overhead_pct",
      ((paired.traced_s /. Float.max 1e-9 paired.plain_s) -. 1.0) *. 100.0 );
  ]

(* --- The per-layer report ------------------------------------------- *)

(* Every per-layer metric the benchmark defines, in BENCHMARK.json's
   order; a workload that does not exercise a layer reports it as 0. *)
let names =
  [
    ("combination.self_ms", "ms");
    ("combination.max_ntuple", "count");
    ("combination.join_rows_in", "count");
    ("combination.join_rows_out", "count");
    ("collection.self_ms", "ms");
    ("collection.scans_per_op", "count");
    ("collection.probes_per_op", "count");
    ("collection.intermediate_rows_per_op", "count");
    ("construction.self_ms", "ms");
    ("lang.parse_us", "us");
    ("planner.plan_us", "us");
    ("plan_cache.hit_rate", "ratio");
    ("session.self_ms", "ms");
    ("txn.body_ms", "ms");
    ("txn.commit_ms", "ms");
    ("txn.conflict_retries", "count");
    ("wal.fsyncs_per_commit", "count");
    ("wal.bytes_per_commit", "bytes");
    ("wal.fsync_ms", "ms");
    ("server.self_ms", "ms");
    ("gc.alloc_words_per_op", "words");
    ("gc.major_per_kop", "count");
    ("gc.top_heap_mb", "MB");
    ("harness.self_ms", "ms");
    ("trace.request_ms", "ms");
    ("trace.overhead_pct", "%");
    ("failed_frac", "ratio");
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
  ]

(* The spans' self times per request, the work counts per request, and
   the share of the request time each layer took.  [extra] holds the
   metrics measured outside the spans (GC, server, writes, ...);
   [outside] names a layer that took a fraction of the end-to-end
   request time outside the traced replay (the server, over the
   socket), so the shares cover the whole request. *)
let report ?outside sp c ~extra =
  let n = float_of_int (max 1 (Span.requests sp)) in
  let self = Span.self_times sp in
  let self_s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let per_req_ms name = self_s name *. 1000.0 /. n in
  let writes = float_of_int (max 1 (snd (Span.total sp "txn"))) in
  let request_s, _ = Span.total sp "request" in
  let measured =
    [
      ("combination.self_ms", per_req_ms "combination");
      ("combination.max_ntuple", float_of_int c.max_ntuple /. n);
      ("combination.join_rows_in", float_of_int c.join_in /. n);
      ("combination.join_rows_out", float_of_int c.join_out /. n);
      ("collection.self_ms", per_req_ms "collection");
      ("collection.scans_per_op", float_of_int c.scans /. n);
      ("collection.probes_per_op", float_of_int c.probes /. n);
      ("collection.intermediate_rows_per_op", float_of_int c.intermediate_rows /. n);
      ("construction.self_ms", per_req_ms "construction");
      ("lang.parse_us", self_s "lang" *. 1e6 /. n);
      ("planner.plan_us", self_s "planner" *. 1e6 /. n);
      ( "plan_cache.hit_rate",
        if c.lookups = 0 then 0.0 else float_of_int c.hits /. float_of_int c.lookups );
      ("session.self_ms", per_req_ms "session");
      ("txn.body_ms", fst (Span.total sp "txn.body") *. 1000.0 /. writes);
      ("txn.commit_ms", self_s "txn" *. 1000.0 /. writes);
      ("harness.self_ms", per_req_ms "request");
      ("trace.request_ms", request_s *. 1000.0 /. n);
    ]
  in
  (* Where the time goes: each span name's share of the request time. *)
  let inside = match outside with Some (_, f) -> 1.0 -. f | None -> 1.0 in
  let shares =
    Hashtbl.fold (fun name s acc -> (name, inside *. s /. Float.max 1e-9 request_s) :: acc) self []
    |> List.append (Option.to_list outside)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  List.iter
    (fun (name, share) -> Measure.info "self-time share %-13s %6.2f%%" name (100.0 *. share))
    shares;
  (match List.filter (fun (name, _) -> name <> "request") shares with
  | (name, share) :: _ ->
    Measure.info "dominant layer: %s (%.1f%% of request time)" name (100.0 *. share)
  | [] -> ());
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> Option.value ~default:0.0 (List.assoc_opt name measured)
      in
      (name, v, unit))
    names
