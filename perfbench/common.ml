(* What every workload shares: the run context, set-up timing, input
   fingerprints, the Naive_eval oracle table, closed-loop pacing and the
   end-to-end metrics. *)

open Relalg

type ctx = {
  seed : int;
  seconds : int;
  trace : bool;
  pascalr : string;  (* the pascalr executable, for adhoc-serve *)
  run_dir : string;  (* this run's private scratch directory *)
  out_dir : string;  (* where span files are written *)
}

(* The library reads PASCALR_* variables to change its defaults, which
   would silently change what is measured. *)
let is_pascalr_var kv = String.length kv >= 8 && String.sub kv 0 8 = "PASCALR_"

(* Untimed closed-loop warm-up before every measured pass. *)
let warmup_s = 1.0

(* Set-up is repeated this many times per run and its median reported. *)
let setup_repeats = 7

(* A failed request misses every latency limit: it enters the latency
   samples as the whole measured window. *)
let failed_latency_ms ctx = float_of_int ctx.seconds *. 1000.0

let attempt f = try Ok (f ()) with e -> Error e

let time f =
  let t0 = Measure.now () in
  let v = f () in
  (v, Measure.now () -. t0)

(* Run [setup] [setup_repeats] times; keep the last result and report
   the median duration in seconds. *)
let setup_median setup =
  let rec go k acc =
    let v, s = time setup in
    if k > 1 then go (k - 1) (s :: acc)
    else begin
      let all = s :: acc in
      Measure.info "set-up runs (s): %s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.6f") all));
      (v, Measure.median all)
    end
  in
  go setup_repeats []

(* The generated inputs, recorded so that a change to a generator or a
   default shows as a changed input rather than as a speed change. *)
let describe_db label db =
  List.iter
    (fun name ->
      Measure.info "input %s.%s cardinality=%d" label name
        (Relation.cardinality (Database.find_relation db name)))
    (Database.relation_names db);
  Measure.info "input %s checksum=%s" label
    (Digest.to_hex (Digest.bytes (Database.snapshot_bytes db)))

(* The reference answer of every distinct request of a schedule,
   computed before timing starts; returns the table and its cost. *)
let oracles sched answer =
  let tbl = Hashtbl.create 256 in
  let (), s =
    time (fun () ->
        Array.iter
          (fun req -> if not (Hashtbl.mem tbl req) then Hashtbl.add tbl req (answer req))
          sched)
  in
  (tbl, s)

(* Closed loop: [f i] for i = start, start + 1, ... until [seconds] have
   passed; returns the next index. *)
let for_seconds seconds f start =
  let deadline = Measure.now () +. seconds in
  let rec go i =
    if Measure.now () >= deadline then i
    else begin
      f i;
      go (i + 1)
    end
  in
  go start

let percentile_info label s =
  let p50, _ = Measure.percentile s 0.50 and p99, beyond = Measure.percentile s 0.99 in
  Measure.info "%s: samples=%d p50=%.4f ms p99=%.4f ms (samples beyond p99: %d)" label
    (Measure.count s) p50 p99 beyond;
  (p50, p99)

(* Throughput as the median over one-second windows of the completions
   they hold ([ends]: completion times, seconds from the start of the
   measured pass); the partial last window is dropped.  A median of
   windows keeps a short stall of the machine from moving the figure. *)
let window_s = 1.0

let throughput ends =
  let n = Measure.count ends in
  let last = if n = 0 then 0.0 else ends.Measure.data.(n - 1) in
  let windows = max 1 (int_of_float (last /. window_s)) in
  let per = Array.make windows 0 in
  for i = 0 to n - 1 do
    let k = int_of_float (ends.Measure.data.(i) /. window_s) in
    if k < windows then per.(k) <- per.(k) + 1
  done;
  Measure.info "completions per %.0f s window: %s" window_s
    (String.concat " " (Array.to_list (Array.map string_of_int per)));
  Measure.median (Array.to_list (Array.map (fun c -> float_of_int c /. window_s) per))

let end_to_end ~ends ~reads ~setup_s ~rss_mb =
  let p50, p99 = percentile_info "reads" reads in
  let rss =
    match rss_mb with
    | Some v -> v
    | None -> failwith "peak resident set unavailable (/proc/<pid>/status)"
  in
  [
    ("throughput_rps", throughput ends, "1/s");
    ("read_p50_ms", p50, "ms");
    ("read_p99_ms", p99, "ms");
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", rss, "MB");
  ]

let write_spans ctx sp =
  let path = Filename.concat ctx.out_dir "spans.tsv" in
  Span.write_tsv sp path;
  Measure.info "spans: %d requests written to %s" (Span.requests sp) path
