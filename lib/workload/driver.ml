(* Open-loop traffic driver.  See the .mli for the contract; the short
   version: a seeded schedule of (scenario, action, arrival) triples is
   partitioned statically across N client domains, each owning a
   private Session over one shared read-only Database, and per-client
   latency histograms are merged when the clients join.

   Determinism is the load-bearing property.  Everything random — the
   scenario draw, the parameter sweep, the exponential inter-arrival
   times — is consumed from one splitmix64 stream *before* any client
   starts, so timing and client count can change when a request runs
   but never what it computes.  The multiset of (class, rows_out)
   results is the pinned witness.

   Shared-state inventory for the concurrency story (audited for this
   driver; see DESIGN.md "Traffic driver"):
   - Session / Plan_cache: single-domain (plain hashtable + mutable
     tallies), therefore one per client, never shared.
   - Obs.Metrics: per-domain DLS registries — each client counts into
     its own, no contention.
   - Obs.Query_stats / Obs.Flight_recorder: process-global and
     mutex-protected; clients hammer them concurrently by design
     (test_stress.ml pins exact counts under 4 domains).
   - Relation scan/probe tallies: plain mutable ints, racy across
     clients; they are diagnostics, not answers, and lost updates are
     accepted (documented) rather than paying an atomic on the scan
     fast path. *)

open Relalg
open Pascalr

let schema_version = 1

(* ---- scenarios ----------------------------------------------------- *)

type action =
  | Adhoc of Calculus.query
  | Execute of Calculus.query * (string * Value.t) list
  | Replan of Calculus.query
  | Write of Tuple.t

type scenario = {
  sc_class : string;
  sc_weight : int;
  sc_make : Prng.t -> action;
}

(* Professors with a paper published in or after $minyear: the prepared
   parameter sweep of the university mix.  Years are generated in
   1970-1985, so the sweep below always has selective and permissive
   draws. *)
let param_papers_query =
  let open Calculus in
  {
    free = [ ("e", base "employees") ];
    select = [ ("e", "ename") ];
    body =
      f_some "p" (base "papers")
        (f_and
           (eq (attr "p" "penr") (attr "e" "enr"))
           (mk_atom (attr "p" "pyear") Value.Ge (param "minyear")));
  }

let university_mix db =
  let running = Queries.running_query db in
  let existential = Queries.existential_query db in
  let universal = Queries.universal_query db in
  [
    {
      sc_class = "adhoc/running";
      sc_weight = 3;
      sc_make = (fun _ -> Adhoc running);
    };
    {
      sc_class = "adhoc/existential";
      sc_weight = 3;
      sc_make = (fun _ -> Adhoc existential);
    };
    {
      sc_class = "prepared/papers-since";
      sc_weight = 5;
      sc_make =
        (fun rng ->
          Execute
            ( param_papers_query,
              [ ("minyear", Value.int (Prng.in_range rng 1972 1984)) ] ));
    };
    {
      sc_class = "replan/universal";
      sc_weight = 1;
      sc_make = (fun _ -> Replan universal);
    };
  ]

(* Suppliers shipping some shipment of at least $minqty units — the
   same shape the B-PREP experiment sweeps. *)
let param_shipments_query =
  let open Calculus in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_some "h" (base "shipments")
        (f_and
           (eq (attr "h" "hsnr") (attr "s" "snr"))
           (mk_atom (attr "h" "hqty") Value.Ge (param "minqty")));
  }

let suppliers_mix db =
  let all_parts = Suppliers.ships_all_parts db in
  let no_red = Suppliers.ships_no_red_part db in
  let all_red = Suppliers.ships_all_red_parts db in
  [
    {
      sc_class = "adhoc/ships-all-parts";
      sc_weight = 3;
      sc_make = (fun _ -> Adhoc all_parts);
    };
    {
      sc_class = "adhoc/no-red-part";
      sc_weight = 3;
      sc_make = (fun _ -> Adhoc no_red);
    };
    {
      sc_class = "prepared/heavy-shipments";
      sc_weight = 5;
      sc_make =
        (fun rng ->
          Execute
            ( param_shipments_query,
              [ ("minqty", Value.int (Prng.in_range rng 100 900)) ] ));
    };
    {
      sc_class = "replan/ships-all-red";
      sc_weight = 1;
      sc_make = (fun _ -> Replan all_red);
    };
  ]

(* ---- writes -------------------------------------------------------- *)

(* Write requests insert into a dedicated append-only relation that no
   query of either mix reads.  That split is what keeps the determinism
   contract intact under concurrency: reads can never observe a write's
   effect, writes are commutative (every request draws a unique key),
   and a first-committer-wins conflict only costs a retry, never a
   different answer.  The multiset witness stays (class, rows) with
   rows = 1 per committed write. *)
let traffic_log_name = "traffic_log"

let traffic_log_schema =
  Schema.make
    [
      Schema.attr "wid" (Vtype.int_range 0 max_int);
      Schema.attr "wclass" (Vtype.string_width 16);
      Schema.attr "wval" (Vtype.int_range 0 1_000_000);
    ]
    ~key:[ "wid" ]

let ensure_traffic_log db =
  match Database.find_relation_opt db traffic_log_name with
  | Some r -> r
  | None -> Database.declare_relation db ~name:traffic_log_name traffic_log_schema

(* The write scenario's weight, sized so roughly [write_pct] percent of
   requests are writes given the read mix's total weight. *)
let write_scenario base_weight ~write_pct =
  if write_pct < 0 || write_pct > 90 then
    failwith "Driver: --write-pct must be between 0 and 90";
  if write_pct = 0 then []
  else begin
    let weight =
      max 1
        (int_of_float
           (Float.round
              (float_of_int (base_weight * write_pct)
              /. float_of_int (100 - write_pct))))
    in
    (* The key counter makes every scheduled write unique; the schedule
       is generated serially before any client starts, so the counter
       draw order is deterministic. *)
    let next_wid = ref 0 in
    [
      {
        sc_class = "write/traffic-log";
        sc_weight = weight;
        sc_make =
          (fun rng ->
            let wid = !next_wid in
            incr next_wid;
            Write
              (Tuple.of_list
                 [
                   Value.int wid;
                   Value.str "traffic";
                   Value.int (Prng.in_range rng 0 999_999);
                 ]));
      };
    ]
  end

let mix_for ?(write_pct = 0) db ~kind =
  let reads =
    match kind with
    | "university" -> university_mix db
    | "suppliers" -> suppliers_mix db
    | other -> failwith ("Driver.mix_for: unknown database kind " ^ other)
  in
  let base_weight = List.fold_left (fun a s -> a + s.sc_weight) 0 reads in
  if write_pct > 0 then ignore (ensure_traffic_log db : Relation.t);
  reads @ write_scenario base_weight ~write_pct

(* ---- schedule ------------------------------------------------------ *)

type mode = Closed | Open of float

type request = {
  rq_index : int;
  rq_class : string;
  rq_at_ms : float;
  rq_warmup : bool;
  rq_action : action;
}

let schedule mode ~requests ~warmup ~seed mix =
  if requests <= 0 then invalid_arg "Driver.schedule: requests <= 0";
  if warmup < 0 then invalid_arg "Driver.schedule: warmup < 0";
  if warmup >= requests then invalid_arg "Driver.schedule: warmup >= requests";
  let total_weight = List.fold_left (fun a s -> a + s.sc_weight) 0 mix in
  if mix = [] || total_weight <= 0 then
    invalid_arg "Driver.schedule: empty or weightless scenario mix";
  (match mode with
  | Open rate when not (rate > 0.0) ->
    invalid_arg "Driver.schedule: non-positive offered rate"
  | Open _ | Closed -> ());
  let rng = Prng.create seed in
  let pick_scenario () =
    let k = Prng.int rng total_weight in
    let rec walk acc = function
      | [] -> assert false
      | s :: rest -> if k < acc + s.sc_weight then s else walk (acc + s.sc_weight) rest
    in
    walk 0 mix
  in
  let arr = Array.make requests None in
  (* An explicit loop: the PRNG draw order per request — scenario,
     action, then (open loop) inter-arrival — is part of the seed
     contract. *)
  let at_ms = ref 0.0 in
  for i = 0 to requests - 1 do
    let sc = pick_scenario () in
    let action = sc.sc_make rng in
    (match mode with
    | Closed -> ()
    | Open rate -> at_ms := !at_ms +. Prng.exponential rng ~mean:(1000.0 /. rate));
    arr.(i) <-
      Some
        {
          rq_index = i;
          rq_class = sc.sc_class;
          rq_at_ms = (match mode with Closed -> 0.0 | Open _ -> !at_ms);
          rq_warmup = i < warmup;
          rq_action = action;
        }
  done;
  Array.map (function Some r -> r | None -> assert false) arr

(* ---- running ------------------------------------------------------- *)

type config = {
  clients : int;
  mode : mode;
  requests : int;
  warmup : int;
  seed : int;
  opts : Exec_opts.t;
}

let config ?(clients = 1) ?(mode = Closed) ?(requests = 100) ?(warmup = 10)
    ?(seed = 42) ?(opts = Exec_opts.default) () =
  { clients; mode; requests; warmup; seed; opts }

type class_stats = {
  cs_class : string;
  cs_requests : int;
  cs_rows : int;
  cs_latency : Obs.Histogram.t;
}

type report = {
  r_clients : int;
  r_mode : mode;
  r_requests : int;
  r_warmup : int;
  r_seed : int;
  r_wall_ms : float;
  r_offered_rps : float option;
  r_achieved_rps : float;
  r_latency : Obs.Histogram.t;
  r_classes : class_stats list;
  r_results : (string * int) list;
}

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Per-client accumulator; private until the join. *)
type client_acc = {
  ca_classes : (string, int ref * int ref * Obs.Histogram.t) Hashtbl.t;
  mutable ca_results : (string * int) list;
  ca_latency : Obs.Histogram.t;
}

let exec_action session opts = function
  | Adhoc q -> Relation.cardinality (Session.exec ~opts session q)
  | Execute (q, params) ->
    Relation.cardinality (Session.exec ~opts ~params session q)
  | Replan q ->
    Session.clear_cache session;
    Relation.cardinality (Session.exec ~opts session q)
  | Write tup ->
    (* First-committer-wins: every concurrent write touches the same
       relation, so losers retry.  Keys are unique per request, so the
       retries commute and each request commits exactly one row. *)
    let rec attempt n =
      if n > 10_000 then failwith "Driver: write retry budget exhausted"
      else
        try
          Session.write session (fun txn ->
              Session.Txn.insert txn traffic_log_name tup);
          1
        with Errors.Txn_conflict _ -> attempt (n + 1)
    in
    attempt 0

(* One client: walk the requests whose index maps to this client, in
   schedule order.  Open loop sleeps until the scheduled arrival and
   measures latency from it (queueing delay included); a client running
   behind schedule fires immediately and the backlog shows up as tail
   latency, exactly as it should. *)
let run_client ~cfg ~db ~t0 (reqs : request array) c =
  let session = Session.create db in
  let acc =
    {
      ca_classes = Hashtbl.create 8;
      ca_results = [];
      ca_latency = Obs.Histogram.create ();
    }
  in
  Array.iter
    (fun r ->
      if r.rq_index mod cfg.clients = c then begin
        let arrival =
          match cfg.mode with
          | Closed -> now_ms ()
          | Open _ ->
            let target = t0 +. r.rq_at_ms in
            let now = now_ms () in
            if now < target then Unix.sleepf ((target -. now) /. 1000.0);
            target
        in
        let rows = exec_action session cfg.opts r.rq_action in
        let lat = now_ms () -. arrival in
        if not r.rq_warmup then begin
          let nreq, nrows, h =
            match Hashtbl.find_opt acc.ca_classes r.rq_class with
            | Some cell -> cell
            | None ->
              let cell = (ref 0, ref 0, Obs.Histogram.create ()) in
              Hashtbl.replace acc.ca_classes r.rq_class cell;
              cell
          in
          incr nreq;
          nrows := !nrows + rows;
          Obs.Histogram.observe h lat;
          Obs.Histogram.observe acc.ca_latency lat;
          acc.ca_results <- (r.rq_class, rows) :: acc.ca_results
        end
      end)
    reqs;
  acc

let run cfg db mix =
  if cfg.clients <= 0 then invalid_arg "Driver.run: clients <= 0";
  let reqs =
    schedule cfg.mode ~requests:cfg.requests ~warmup:cfg.warmup ~seed:cfg.seed
      mix
  in
  (* Declare the write target before any client domain starts, so the
     clients only ever mutate through transactions. *)
  if Array.exists (fun r -> match r.rq_action with Write _ -> true | _ -> false) reqs
  then ignore (ensure_traffic_log db : Relation.t);
  let t0 = now_ms () in
  let accs =
    if cfg.clients = 1 then [| run_client ~cfg ~db ~t0 reqs 0 |]
    else
      Array.init cfg.clients (fun c ->
          Domain.spawn (fun () -> run_client ~cfg ~db ~t0 reqs c))
      |> Array.map Domain.join
  in
  let wall_ms = now_ms () -. t0 in
  (* Merge the per-client accumulators: histogram pooling is
     commutative and associative, result lists are sorted, so client
     count and join order leave no trace in the report. *)
  let classes : (string, int ref * int ref * Obs.Histogram.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let latency = Obs.Histogram.create () in
  let results = ref [] in
  Array.iter
    (fun acc ->
      Obs.Histogram.merge ~into:latency acc.ca_latency;
      results := List.rev_append acc.ca_results !results;
      Hashtbl.iter
        (fun cls (nreq, nrows, h) ->
          match Hashtbl.find_opt classes cls with
          | Some (tr, tw, th) ->
            tr := !tr + !nreq;
            tw := !tw + !nrows;
            Obs.Histogram.merge ~into:th h
          | None ->
            let th = Obs.Histogram.create () in
            Obs.Histogram.merge ~into:th h;
            Hashtbl.replace classes cls (ref !nreq, ref !nrows, th))
        acc.ca_classes)
    accs;
  let class_stats =
    Hashtbl.fold
      (fun cls (nreq, nrows, h) acc ->
        {
          cs_class = cls;
          cs_requests = !nreq;
          cs_rows = !nrows;
          cs_latency = h;
        }
        :: acc)
      classes []
    |> List.sort (fun a b -> String.compare a.cs_class b.cs_class)
  in
  {
    r_clients = cfg.clients;
    r_mode = cfg.mode;
    r_requests = cfg.requests;
    r_warmup = cfg.warmup;
    r_seed = cfg.seed;
    r_wall_ms = wall_ms;
    r_offered_rps = (match cfg.mode with Closed -> None | Open r -> Some r);
    r_achieved_rps =
      (if wall_ms > 0.0 then float_of_int cfg.requests /. (wall_ms /. 1000.0)
       else 0.0);
    r_latency = latency;
    r_classes = class_stats;
    r_results = List.sort compare !results;
  }

(* ---- reporting ----------------------------------------------------- *)

let mode_string = function Closed -> "closed" | Open _ -> "open"

let report_to_json r =
  let open Obs.Json in
  Obj
    [
      ("schema_version", Int schema_version);
      ("clients", Int r.r_clients);
      ("mode", Str (mode_string r.r_mode));
      ( "offered_rps",
        match r.r_offered_rps with Some v -> Float v | None -> Null );
      ("achieved_rps", Float r.r_achieved_rps);
      ("requests", Int r.r_requests);
      ("warmup", Int r.r_warmup);
      ("seed", Int r.r_seed);
      ("wall_ms", Float r.r_wall_ms);
      ("latency_ms", Obs.Histogram.to_json r.r_latency);
      ( "classes",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("class", Str c.cs_class);
                   ("requests", Int c.cs_requests);
                   ("rows_out", Int c.cs_rows);
                   ("latency_ms", Obs.Histogram.to_json c.cs_latency);
                 ])
             r.r_classes) );
      ( "results",
        List
          (List.map
             (fun (cls, rows) ->
               Obj [ ("class", Str cls); ("rows_out", Int rows) ])
             r.r_results) );
    ]

let pp_report ppf r =
  let q h p = Obs.Histogram.quantile h p in
  Fmt.pf ppf
    "@[<v>traffic: %d clients, %s loop, %d requests (%d warmup), seed %d@,"
    r.r_clients (mode_string r.r_mode) r.r_requests r.r_warmup r.r_seed;
  (match r.r_offered_rps with
  | Some o ->
    Fmt.pf ppf "offered %.1f req/s, achieved %.1f req/s in %.0f ms@," o
      r.r_achieved_rps r.r_wall_ms
  | None ->
    Fmt.pf ppf "achieved %.1f req/s in %.0f ms@," r.r_achieved_rps r.r_wall_ms);
  Fmt.pf ppf "%-26s %8s %10s | %10s %10s %10s@," "class" "requests" "rows"
    "p50(ms)" "p95(ms)" "p99(ms)";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-26s %8d %10d | %10.3f %10.3f %10.3f@," c.cs_class
        c.cs_requests c.cs_rows (q c.cs_latency 0.5) (q c.cs_latency 0.95)
        (q c.cs_latency 0.99))
    r.r_classes;
  Fmt.pf ppf "%-26s %8d %10s | %10.3f %10.3f %10.3f@]" "(all)"
    (Obs.Histogram.count r.r_latency)
    "" (q r.r_latency 0.5) (q r.r_latency 0.95) (q r.r_latency 0.99)
