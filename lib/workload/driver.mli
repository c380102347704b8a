(** Open-loop traffic driver: many concurrent client domains against
    one shared read-only {!Relalg.Database}.

    The driver turns "serves heavy traffic" from an aspiration into a
    measured number.  A seeded scenario mix (ad-hoc queries through the
    plan cache, prepared executions with per-request parameter sweeps,
    forced replans) is expanded into a deterministic request schedule;
    [clients] domains — each owning a private {!Pascalr.Session}, since
    sessions and their plan caches are single-domain structures — pull
    statically partitioned slices of that schedule, sleep until each
    request's scheduled arrival (open loop) or fire back to back
    (closed loop), and record per-request latency into per-client
    {!Obs.Histogram}s that are merged when the clients join.

    Determinism contract: the schedule — scenario choice, parameter
    draws, arrival times — depends only on (mix, mode, requests,
    warmup, seed), never on [clients] or on timing.  Concurrency moves
    latencies, never answers: the multiset of (scenario class,
    rows_out) results is byte-identical at any [clients] setting.

    Open-loop latency is measured from the request's *scheduled*
    arrival, not from when the client got around to it, so queueing
    delay is included and slow servers cannot hide behind coordinated
    omission.  Warmup requests execute normally but are excluded from
    the reported histograms and the result multiset. *)

open Relalg
open Pascalr

val schema_version : int
(** Stamped into {!report_to_json}; bump when the document reshapes. *)

(** {2 Scenarios} *)

(** What one request does to its client's session. *)
type action =
  | Adhoc of Calculus.query
      (** one-shot execution through the session's plan cache *)
  | Execute of Calculus.query * (string * Value.t) list
      (** PREPARE/EXECUTE shape: the query is prepared once per client
          (first use populates the plan cache), each request grounds
          its own parameter bindings *)
  | Replan of Calculus.query
      (** analyze-style replan: the client's plan cache is cleared
          first, so the full planning pipeline runs again *)
  | Write of Tuple.t
      (** commit this tuple into {!traffic_log_name} through a write
          transaction, retrying first-committer-wins conflicts; counts
          as one result row *)

type scenario = {
  sc_class : string;  (** reporting label, e.g. ["adhoc/running"] *)
  sc_weight : int;  (** relative draw weight in the mix *)
  sc_make : Prng.t -> action;
      (** draw one request's action; must consume the same number of
          PRNG values for a given scenario regardless of timing *)
}

val university_mix : Database.t -> scenario list
(** Ad-hoc running/existential/universal queries, a prepared
    [$minyear] parameter sweep over papers, and a forced replan of the
    universal query. *)

val suppliers_mix : Database.t -> scenario list
(** Ad-hoc division queries, a prepared [$minqty] shipment sweep, and
    a forced replan. *)

val traffic_log_name : string
(** The dedicated write-target relation, ["traffic_log"].  No query of
    either mix reads it, so the (class, rows) determinism witness
    survives any interleaving of writes: unique keys make the inserts
    commutative, and conflicts only cost retries. *)

val ensure_traffic_log : Database.t -> Relation.t
(** Declare {!traffic_log_name} (wid key, wclass, wval) if absent. *)

val mix_for : ?write_pct:int -> Database.t -> kind:string -> scenario list
(** ["university"] or ["suppliers"]; [write_pct] (default 0) adds a
    ["write/traffic-log"] scenario weighted so roughly that percentage
    of requests commit a uniquely-keyed insert through a write
    transaction.  @raise Failure on an unknown kind or a [write_pct]
    outside 0-90. *)

(** {2 Schedule} *)

type mode =
  | Closed  (** each client fires its next request on completion *)
  | Open of float  (** Poisson arrivals at this offered rate, req/s *)

type request = {
  rq_index : int;
  rq_class : string;
  rq_at_ms : float;  (** scheduled arrival offset; 0 under [Closed] *)
  rq_warmup : bool;
  rq_action : action;
}

val schedule :
  mode -> requests:int -> warmup:int -> seed:int -> scenario list ->
  request array
(** The full deterministic request sequence: weighted scenario draws,
    parameter draws, and (open loop) cumulative exponential
    inter-arrival times, all from one splitmix64 stream seeded with
    [seed].  The first [warmup] requests are flagged.
    @raise Invalid_argument on [requests <= 0], [warmup < 0],
    [warmup >= requests], an empty or non-positive-weight mix, or a
    non-positive open-loop rate. *)

(** {2 Running} *)

type config = {
  clients : int;  (** client domains; 1 runs on the calling domain *)
  mode : mode;
  requests : int;  (** total, warmup included *)
  warmup : int;
  seed : int;
  opts : Exec_opts.t;
      (** per-request execution options *)
}

val config :
  ?clients:int -> ?mode:mode -> ?requests:int -> ?warmup:int ->
  ?seed:int -> ?opts:Exec_opts.t -> unit -> config
(** Defaults: 1 client, [Closed], 100 requests, 10 warmup, seed 42,
    {!Exec_opts.default}. *)

type class_stats = {
  cs_class : string;
  cs_requests : int;  (** non-warmup requests of this class *)
  cs_rows : int;  (** total result rows over those requests *)
  cs_latency : Obs.Histogram.t;
}

type report = {
  r_clients : int;
  r_mode : mode;
  r_requests : int;  (** executed, warmup included *)
  r_warmup : int;
  r_seed : int;
  r_wall_ms : float;  (** client spawn to last client join *)
  r_offered_rps : float option;  (** [None] under [Closed] *)
  r_achieved_rps : float;  (** executed requests / wall seconds *)
  r_latency : Obs.Histogram.t;  (** all non-warmup requests *)
  r_classes : class_stats list;  (** sorted by class label *)
  r_results : (string * int) list;
      (** the determinism witness: one (class, rows_out) entry per
          non-warmup request, sorted — identical at any [clients] *)
}

val run : config -> Database.t -> scenario list -> report
(** Execute the schedule.  Requests are partitioned statically —
    request [i] belongs to client [i mod clients] — so the work each
    client performs is independent of timing.  The database must not
    be mutated outside the driver for the duration of the run; the
    driver's own writes go through snapshot-isolated transactions into
    {!traffic_log_name} only.  Per-relation scan/probe tallies may
    race benignly (they are diagnostics, not answers).
    @raise Invalid_argument on [clients <= 0] or a bad schedule. *)

val report_to_json : report -> Obs.Json.t
val pp_report : report Fmt.t
