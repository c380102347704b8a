(* Workload "division": suppliers-parts at scale 2, one in-process
   client through Session.  The ad-hoc division queries (suppliers
   shipping no red part / all parts / all red parts) and the prepared
   heavy-shipments($minqty) sweep.  Combination does most of the work
   and the plan cache always hits. *)

open Relalg
open Pascalr

let scale = 2
let db_seed = 7 (* the suppliers generator's own default *)

(* Suppliers with some shipment of at least $minqty units: the
   traffic driver's prepared sweep over this database. *)
let heavy_shipments =
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

type req = Adhoc of int | Heavy of int

let classes = [| "no-red-part"; "all-parts"; "all-red-parts"; "heavy-shipments" |]

(* How often each class above appears in every block of the schedule. *)
let weights = [| 1; 2; 1; 1 |]

type env = {
  db : Database.t;
  session : Session.t;
  queries : Calculus.query array;  (* the ad-hoc classes, in order *)
  heavy : Prepared.t;
}

let setup () =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:db_seed scale) in
  let session = Session.create db in
  {
    db;
    session;
    queries =
      [|
        Workload.Suppliers.ships_no_red_part db;
        Workload.Suppliers.ships_all_parts db;
        Workload.Suppliers.ships_all_red_parts db;
      |];
    heavy = Session.prepare session heavy_shipments;
  }

let class_of = function Adhoc i -> i | Heavy _ -> 3

let schedule seed n =
  let r = Measure.sub seed 1 in
  let next_class = Measure.mixer r weights in
  Array.init n (fun _ ->
      match next_class () with
      | 3 -> Heavy (Measure.between r 100 900)
      | i -> Adhoc i)

(* The reference answer of one request, by the unoptimized evaluator. *)
let oracle env = function
  | Adhoc i -> Relation.to_list (Naive_eval.run env.db env.queries.(i))
  | Heavy q ->
    let b = Calculus.Var_map.singleton "minqty" (Value.int q) in
    Relation.to_list
      (Naive_eval.run env.db (Calculus.subst_query b heavy_shipments))

let exec env = function
  | Adhoc i -> Session.exec env.session env.queries.(i)
  | Heavy q -> Prepared.exec ~params:[ ("minqty", Value.int q) ] env.heavy

let exec_traced sp c env = function
  | Adhoc i -> Layers.adhoc sp c env.session env.queries.(i)
  | Heavy q -> Layers.prepared sp c env.session env.heavy [ ("minqty", Value.int q) ]

let run (ctx : Common.ctx) =
  let env, setup_s = Common.setup_median setup in
  Common.describe_db "suppliers" env.db;
  let sched = schedule ctx.Common.seed (max 20_000 (400 * ctx.Common.seconds)) in
  let expected, oracle_s = Common.oracles sched (oracle env) in
  Measure.info "oracle: %d distinct requests answered by Naive_eval in %.2f s (not in setup_s)"
    (Hashtbl.length expected) oracle_s;
  let req i = sched.(i mod Array.length sched) in
  let failed = ref 0 in
  let check req outcome =
    match outcome with
    | Ok rel when List.equal Tuple.equal (Relation.to_list rel) (Hashtbl.find expected req) -> true
    | Ok _ | Error _ ->
      incr failed;
      false
  in
  let attempt = Common.attempt in
  (* Warm-up: the plan cache fills and lazy set-up finishes. *)
  let warm =
    Common.for_seconds Common.warmup_s
      (fun i -> ignore (check (req i) (attempt (fun () -> exec env (req i))) : bool))
      0
  in
  let lat = Measure.samples () and ends = Measure.samples () in
  let per_class = Array.make (Array.length classes) 0.0 in
  let per_class_n = Array.make (Array.length classes) 0 in
  let failed_warm = !failed in
  let t0 = Measure.now () in
  let stop =
    Common.for_seconds (float_of_int ctx.Common.seconds)
      (fun i ->
        let s = Measure.now () in
        let outcome = attempt (fun () -> exec env (req i)) in
        let e = Measure.now () in
        let ms = (e -. s) *. 1000.0 in
        Measure.add ends (e -. t0);
        let k = class_of (req i) in
        per_class.(k) <- per_class.(k) +. ms;
        per_class_n.(k) <- per_class_n.(k) + 1;
        Measure.add lat (if check (req i) outcome then ms else Common.failed_latency_ms ctx))
      warm
  in
  let n = stop - warm in
  Array.iteri
    (fun k name ->
      if per_class_n.(k) > 0 then
        Measure.info "class %-16s n=%6d mean=%.3f ms" name per_class_n.(k)
          (per_class.(k) /. float_of_int per_class_n.(k)))
    classes;
  let failed_frac = float_of_int (!failed - failed_warm) /. float_of_int (max 1 n) in
  Measure.info "failed_frac=%.6f" failed_frac;
  if not ctx.Common.trace then
    {
      Measure.attempted = stop;
      failed = !failed;
      metrics =
        Common.end_to_end ~ends ~reads:lat ~setup_s ~rss_mb:(Measure.vm_hwm_mb "self");
    }
  else begin
    (* The traced replay: the measured requests again, in order, each
       paired with an untraced run of itself. *)
    let sp = Span.create () and c = Layers.counts () and paired = Layers.pairing () in
    for i = warm to stop - 1 do
      let a, b =
        Layers.pair paired sp
          ~plain:(fun () -> exec env (req i))
          ~traced:(fun () -> exec_traced sp c env (req i))
      in
      ignore (check (req i) a : bool);
      ignore (check (req i) b : bool)
    done;
    Common.write_spans ctx sp;
    {
      Measure.attempted = stop + (2 * n);
      failed = !failed;
      metrics =
        Layers.report sp c
          ~extra:(Layers.pairing_metrics paired @ [ ("failed_frac", failed_frac) ]);
    }
  end
