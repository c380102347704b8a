(* Workload "oltp-index": suppliers-parts at scale 32 with a hash
   secondary index on shipments.hqty, durable (snapshot + write-ahead
   log in a fresh directory, the log's own group-commit fsync policy:
   every commit returns only once an fsync covers it).  One in-process
   client: in every five operations, four prepared point reads
   [hqty = $q] and one write transaction through Session.write; writes
   alternate between inserting a new shipment and deleting a live one,
   so the cardinality is the same at the start and the end.  Every read
   is checked against a model of shipments kept in step with the
   writes. *)

open Relalg
open Pascalr

let scale = 32
let db_seed = 7 (* the suppliers generator's own default *)
let write_every = 5 (* one operation in five is a write *)
let max_attempts = 3 (* a write that conflicts this often fails *)

let point_query =
  let open Calculus in
  {
    free = [ ("h", base "shipments") ];
    select = [ ("h", "hsnr"); ("h", "hpnr") ];
    body = eq (attr "h" "hqty") (param "q");
  }

let params = Workload.Suppliers.scaled ~seed:db_seed scale

(* --- The model of shipments ----------------------------------------- *)

type model = {
  qty : (int * int, int) Hashtbl.t;  (* key -> hqty *)
  by_qty : (int, (int * int) list) Hashtbl.t;
  mutable live : (int * int) array;  (* keys, for uniform deletion *)
  pos : (int * int, int) Hashtbl.t;  (* key -> index in [live] *)
  mutable n_live : int;
}

let model_add m key q =
  Hashtbl.replace m.qty key q;
  Hashtbl.replace m.by_qty q
    (key :: Option.value ~default:[] (Hashtbl.find_opt m.by_qty q));
  if m.n_live = Array.length m.live then begin
    let bigger = Array.make (2 * max 1 m.n_live) key in
    Array.blit m.live 0 bigger 0 m.n_live;
    m.live <- bigger
  end;
  m.live.(m.n_live) <- key;
  Hashtbl.replace m.pos key m.n_live;
  m.n_live <- m.n_live + 1

let model_remove m key =
  let q = Hashtbl.find m.qty key in
  Hashtbl.remove m.qty key;
  Hashtbl.replace m.by_qty q (List.filter (fun k -> k <> key) (Hashtbl.find m.by_qty q));
  let i = Hashtbl.find m.pos key in
  let last = m.live.(m.n_live - 1) in
  m.live.(i) <- last;
  Hashtbl.replace m.pos last i;
  Hashtbl.remove m.pos key;
  m.n_live <- m.n_live - 1

let int_of = function Value.VInt i -> i | v -> failwith ("not an int: " ^ Value.to_string v)

let model_of db =
  let m =
    {
      qty = Hashtbl.create 8192;
      by_qty = Hashtbl.create 1024;
      live = [||];
      pos = Hashtbl.create 8192;
      n_live = 0;
    }
  in
  Relation.iter
    (fun t ->
      model_add m (int_of (Tuple.get t 0), int_of (Tuple.get t 1)) (int_of (Tuple.get t 2)))
    (Database.find_relation db "shipments");
  m

let expected m q = List.sort compare (Option.value ~default:[] (Hashtbl.find_opt m.by_qty q))

let answer rel =
  List.sort compare
    (List.map (fun t -> (int_of (Tuple.get t 0), int_of (Tuple.get t 1))) (Relation.to_list rel))

(* --- The operation stream ------------------------------------------- *)

type op = Read of int | Insert of (int * int) * int | Delete of int * int

(* The next operation, drawn from the seeded stream and the model; the
   same seed and the same successful writes give the same stream. *)
type gen = {
  rng : Measure.rng;
  is_write : unit -> int;  (* 1 for a write, 0 for a read *)
  mutable inserts : int;
  mutable deletes : int;
}

let gen seed =
  let rng = Measure.sub seed 2 in
  { rng; is_write = Measure.mixer rng [| write_every - 1; 1 |]; inserts = 0; deletes = 0 }

let balanced g = g.inserts = g.deletes

let next g m =
  let r = g.rng in
  if g.is_write () = 0 then Read (Measure.between r 1 1000)
  else if balanced g then begin
    g.inserts <- g.inserts + 1;
    let rec fresh () =
      let key =
        ( Measure.between r 1 params.Workload.Suppliers.n_suppliers,
          Measure.between r 1 params.Workload.Suppliers.n_parts )
      in
      if Hashtbl.mem m.qty key then fresh () else key
    in
    let key = fresh () in
    Insert (key, Measure.between r 1 1000)
  end
  else begin
    g.deletes <- g.deletes + 1;
    let snr, pnr = m.live.(Measure.below r m.n_live) in
    Delete (snr, pnr)
  end

(* --- The database ----------------------------------------------------- *)

type env = { db : Database.t; session : Session.t; point : Prepared.t }

let fresh_dir =
  let k = ref 0 in
  fun ctx ->
    incr k;
    let d = Filename.concat ctx.Common.run_dir (Printf.sprintf "wal-%d" !k) in
    Sys.mkdir d 0o755;
    d

let setup ctx () =
  let db = Workload.Suppliers.generate params in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  Database.attach_wal db ~path:(Filename.concat (fresh_dir ctx) "db");
  let session = Session.create db in
  { db; session; point = Session.prepare session point_query }

let cardinality env =
  Session.read env.session (fun txn ->
      Relation.cardinality (Database.find_relation (Session.Txn.database txn) "shipments"))

(* One write transaction, retried on first-committer-wins conflicts;
   returns whether it committed and how many retries it took. *)
let write_with ~write env op =
  let body txn =
    match op with
    | Insert ((snr, pnr), q) ->
      Session.Txn.insert txn "shipments"
        (Tuple.of_list [ Value.int snr; Value.int pnr; Value.int q ])
    | Delete (snr, pnr) -> Session.Txn.delete_key txn "shipments" [ Value.int snr; Value.int pnr ]
    | Read _ -> assert false
  in
  let rec attempt k =
    match write env.session body with
    | () -> (true, k)
    | exception Errors.Txn_conflict _ when k + 1 < max_attempts -> attempt (k + 1)
    | exception Errors.Txn_conflict _ -> (false, k)
  in
  attempt 0

let apply m = function
  | Insert (key, q) -> model_add m key q
  | Delete (snr, pnr) -> model_remove m (snr, pnr)
  | Read _ -> ()

(* A pass over the operation stream, untraced: each operation's latency
   lands in [reads] or [writes]; the answer check runs outside the
   timed call. *)
type pass = {
  start : float;
  ends : Measure.samples;  (* completion times, seconds from [start] *)
  mutable ops : int;
  mutable failed : int;
  mutable retries : int;
  reads : Measure.samples;
  writes : Measure.samples;
}

let pass () =
  {
    start = Measure.now ();
    ends = Measure.samples ();
    ops = 0;
    failed = 0;
    retries = 0;
    reads = Measure.samples ();
    writes = Measure.samples ();
  }

let read env q = Prepared.exec ~params:[ ("q", Value.int q) ] env.point

let step ~failed_ms env g m p =
  let op = next g m in
  p.ops <- p.ops + 1;
  (match op with
  | Read q ->
    let s = Measure.now () in
    let rel = try Some (read env q) with _ -> None in
    let ms = (Measure.now () -. s) *. 1000.0 in
    let ok = match rel with Some rel -> answer rel = expected m q | None -> false in
    if ok then Measure.add p.reads ms
    else begin
      p.failed <- p.failed + 1;
      Measure.add p.reads failed_ms
    end
  | Insert _ | Delete _ ->
    let s = Measure.now () in
    let ok, retries = try write_with ~write:Session.write env op with _ -> (false, 0) in
    let ms = (Measure.now () -. s) *. 1000.0 in
    p.retries <- p.retries + retries;
    if ok then begin
      apply m op;
      Measure.add p.writes ms
    end
    else begin
      p.failed <- p.failed + 1;
      Measure.add p.writes failed_ms
    end);
  Measure.add p.ends (Measure.now () -. p.start)

(* Closed loop until [seconds] have passed and the writes are balanced. *)
let drive ~seconds ~failed_ms env g m p =
  let deadline = Measure.now () +. seconds in
  while Measure.now () < deadline || not (balanced g) do
    step ~failed_ms env g m p
  done

let wal_counters () =
  let c = Obs.Metrics.counter_value in
  (c "txn.commits", c "wal.fsyncs", c "wal.bytes")

let fsync_ms snap = match Obs.Metrics.find snap "wal.fsync_ms" with
  | Some (Obs.Metrics.Histogram { count; sum; _ }) when count > 0 -> sum /. float_of_int count
  | _ -> 0.0

let run (ctx : Common.ctx) =
  let env, setup_s = Common.setup_median (setup ctx) in
  Common.describe_db "suppliers" env.db;
  Measure.info "input shipments index=hash(hqty) durable=%b" (Database.durable env.db);
  let m = model_of env.db in
  let g = gen ctx.Common.seed in
  let failed_ms = Common.failed_latency_ms ctx in
  let card0 = cardinality env in
  let warm = pass () in
  drive ~seconds:Common.warmup_s ~failed_ms env g m warm;
  let p = pass () in
  let m0 = Obs.Metrics.snapshot () in
  let c0, f0, b0 = wal_counters () in
  drive ~seconds:(float_of_int ctx.Common.seconds) ~failed_ms env g m p;
  let c1, f1, b1 = wal_counters () in
  let fsync = fsync_ms (Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ())) in
  let card1 = cardinality env in
  let commits = max 1 (c1 - c0) in
  let n_writes = Measure.count p.writes in
  (* Steady state: as many inserts as deletes, so the cardinality is
     unchanged and the model agrees with the store. *)
  let steady = card0 = card1 && card1 = m.n_live in
  Measure.info "shipments cardinality start=%d end=%d model=%d" card0 card1 m.n_live;
  Measure.info "writes=%d commits=%d fsyncs=%d wal_bytes=%d wal_bytes_per_write=%.1f \
                fsyncs_per_commit=%.3f fsync_ms=%.3f conflict_retries=%d"
    n_writes (c1 - c0) (f1 - f0) (b1 - b0)
    (float_of_int (b1 - b0) /. float_of_int (max 1 n_writes))
    (float_of_int (f1 - f0) /. float_of_int commits) fsync p.retries;
  let w50, w99 = Common.percentile_info "writes" p.writes in
  let failed = warm.failed + p.failed + if steady then 0 else 1 in
  let attempted = warm.ops + p.ops in
  Measure.info "failed_frac=%.6f" (float_of_int p.failed /. float_of_int (max 1 p.ops));
  if not ctx.Common.trace then
    {
      Measure.attempted;
      failed;
      metrics =
        Common.end_to_end ~ends:p.ends ~reads:p.reads ~setup_s
          ~rss_mb:(Measure.vm_hwm_mb "self");
    }
  else begin
    (* The traced replay: the same operations on two fresh durable
       databases in lockstep, each operation run untraced on one and
       traced on the other, back to back. *)
    let plain = setup ctx () and traced = setup ctx () in
    let m = model_of plain.db in
    let g = gen ctx.Common.seed in
    let sp = Span.create () and c = Layers.counts () and paired = Layers.pairing () in
    let replayed = ref 0 and replay_failed = ref 0 in
    (* One operation on both databases: untraced on [plain]; on [traced]
       as a traced request paired with the untraced one when
       [traced_run], untraced too otherwise (the warm-up). *)
    let replay_op ~traced_run =
      let op = next g m in
      let on_plain, on_traced =
        match op with
        | Read q ->
          let check rel = answer rel = expected m q in
          ( (fun () -> check (read plain q)),
            fun () ->
              check
                (if traced_run then
                   Layers.prepared sp c traced.session traced.point [ ("q", Value.int q) ]
                 else read traced q) )
        | Insert _ | Delete _ ->
          ( (fun () -> fst (write_with ~write:Session.write plain op)),
            fun () ->
              let write = if traced_run then Layers.write sp else Session.write in
              fst (write_with ~write traced op)
          )
      in
      let a, b =
        if traced_run then Layers.pair paired sp ~plain:on_plain ~traced:on_traced
        else (Common.attempt on_plain, Common.attempt on_traced)
      in
      let ok = function Ok true -> true | Ok false | Error _ -> false in
      replayed := !replayed + 2;
      if not (ok a) then incr replay_failed;
      if not (ok b) then incr replay_failed;
      if ok a && ok b then apply m op
    in
    for _ = 1 to warm.ops do
      replay_op ~traced_run:false
    done;
    for _ = 1 to p.ops do
      replay_op ~traced_run:true
    done;
    Common.write_spans ctx sp;
    {
      Measure.attempted = attempted + !replayed;
      failed = failed + !replay_failed;
      metrics =
        Layers.report sp c
          ~extra:
            (Layers.pairing_metrics paired
            @ [
                ("txn.conflict_retries", float_of_int p.retries);
                ("wal.fsyncs_per_commit", float_of_int (f1 - f0) /. float_of_int commits);
                ("wal.bytes_per_commit", float_of_int (b1 - b0) /. float_of_int commits);
                ("wal.fsync_ms", fsync);
                ("failed_frac", float_of_int p.failed /. float_of_int (max 1 p.ops));
                ("write_p50_ms", w50);
                ("write_p99_ms", w99);
              ]);
    }
  end
