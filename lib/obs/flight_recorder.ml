(* Always-on flight recorder: a bounded ring of per-execution records.

   Every Session / Prepared execution appends one fixed-shape record —
   digest, options fingerprint, wall and per-phase times, rows, and
   the top storage counters for that execution — at the cost of one
   array store.  When the ring is full the oldest record is overwritten;
   [total] / [dropped] keep the bookkeeping honest.

   The slow-query machinery piggybacks on the same digests: when a
   threshold is set ([set_slow_ms]) and an execution's wall time
   crosses it, [note_slow] arms that digest.  The *next* execution of
   an armed digest runs under a full [Trace.collect] (the caller checks
   [armed] and hands the finished span to [capture]), so the expensive
   capture happens exactly once per offender and never on the fast
   path. *)

type record = {
  fr_digest : string;
  fr_opts : string;  (* exec-options fingerprint *)
  fr_wall_ms : float;
  fr_collection_ms : float;
  fr_combination_ms : float;
  fr_construction_ms : float;
  fr_rows : int;
  fr_scans : int;  (* relation.scans delta *)
  fr_probes : int;  (* relation.probes delta *)
  fr_index_probes : int;  (* index.probes delta *)
  fr_pool_fetches : int;  (* pool.fetches delta *)
}

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let default_capacity = 256
let ring : record option array ref = ref (Array.make default_capacity None)
let head = ref 0  (* next write slot *)
let total = ref 0  (* records ever written *)

let capacity () = locked (fun () -> Array.length !ring)

let set_capacity n =
  if n <= 0 then invalid_arg "Flight_recorder.set_capacity";
  locked (fun () ->
      ring := Array.make n None;
      head := 0;
      total := 0)

let record r =
  locked (fun () ->
      let cap = Array.length !ring in
      !ring.(!head) <- Some r;
      head := (!head + 1) mod cap;
      incr total)

let total_recorded () = locked (fun () -> !total)

let dropped () =
  locked (fun () -> Stdlib.max 0 (!total - Array.length !ring))

(* Newest first. *)
let recent ?n () =
  locked (fun () ->
      let cap = Array.length !ring in
      let kept = Stdlib.min !total cap in
      let want = match n with None -> kept | Some n -> Stdlib.min n kept in
      List.init want (fun i ->
          !ring.(((!head - 1 - i) mod cap + cap) mod cap))
      |> List.filter_map Fun.id)

(* Slow-query threshold and per-digest arming. *)

let slow_threshold : float option ref = ref None
let armed_digests : (string, unit) Hashtbl.t = Hashtbl.create 8
let slow_spans : (string, Trace.span) Hashtbl.t = Hashtbl.create 8

let set_slow_ms ms =
  (match ms with
  | Some ms when not (ms >= 0.0) ->
    invalid_arg "Flight_recorder.set_slow_ms"
  | _ -> ());
  locked (fun () -> slow_threshold := ms)

let slow_ms () = locked (fun () -> !slow_threshold)

let note_slow digest wall_ms =
  locked (fun () ->
      match !slow_threshold with
      | Some t when wall_ms >= t -> Hashtbl.replace armed_digests digest ()
      | Some _ | None -> ())

let armed digest = locked (fun () -> Hashtbl.mem armed_digests digest)

let capture digest span =
  locked (fun () ->
      Hashtbl.remove armed_digests digest;
      Hashtbl.replace slow_spans digest span)

(* Digest-sorted for deterministic output; latest capture per digest. *)
let slow_traces () =
  locked (fun () ->
      Hashtbl.fold (fun d s acc -> (d, s) :: acc) slow_spans []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let reset () =
  locked (fun () ->
      ring := Array.make (Array.length !ring) None;
      head := 0;
      total := 0;
      Hashtbl.reset armed_digests;
      Hashtbl.reset slow_spans)

let record_to_json r =
  Json.Obj
    [
      ("digest", Json.Str r.fr_digest);
      ("opts", Json.Str r.fr_opts);
      ("wall_ms", Json.Float r.fr_wall_ms);
      ( "phases_ms",
        Json.Obj
          [
            ("collection", Json.Float r.fr_collection_ms);
            ("combination", Json.Float r.fr_combination_ms);
            ("construction", Json.Float r.fr_construction_ms);
          ] );
      ("rows", Json.Int r.fr_rows);
      ( "counters",
        Json.Obj
          [
            ("relation_scans", Json.Int r.fr_scans);
            ("relation_probes", Json.Int r.fr_probes);
            ("index_probes", Json.Int r.fr_index_probes);
            ("pool_fetches", Json.Int r.fr_pool_fetches);
          ] );
    ]

let to_json ?n () =
  Json.Obj
    [
      ("capacity", Json.Int (capacity ()));
      ("recorded", Json.Int (Stdlib.min (total_recorded ()) (capacity ())));
      ("total", Json.Int (total_recorded ()));
      ("dropped", Json.Int (dropped ()));
      ( "slow_ms",
        match slow_ms () with None -> Json.Null | Some ms -> Json.Float ms );
      ("recent", Json.List (List.map record_to_json (recent ?n ())));
    ]

let pp_record ppf r =
  Fmt.pf ppf "%-10s %8.3f ms  (coll %.3f / comb %.3f / cons %.3f)  %6d rows"
    (String.sub r.fr_digest 0 (Stdlib.min 10 (String.length r.fr_digest)))
    r.fr_wall_ms r.fr_collection_ms r.fr_combination_ms r.fr_construction_ms
    r.fr_rows
