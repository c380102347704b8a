(* Workload "adhoc-serve": a [pascalr serve] subprocess on the in-memory
   university database at scale 2, driven closed loop over its Unix
   socket by two connections from this one process.  Every request is
   a query text — point lookups, papers-since, and the running and
   existential shapes — with constants drawn so that the distinct texts
   far outnumber the 64 plans a connection's cache holds.  Every
   response is compared with the Naive_eval answer rendered the way the
   server renders it. *)

open Relalg
open Pascalr

let scale = 2
let db_seed = 42 (* the university generator's own default *)
let connections = 2

(* --- Requests ---------------------------------------------------------- *)

let levels = [| "freshman"; "sophomore"; "junior"; "senior" |]
let statuses = [| "student"; "technician"; "assistant"; "professor" |]

(* Each shape: name, occurrences in every block of the schedule, text
   from a draw. *)
let shapes =
  let pick r a = a.(Measure.below r (Array.length a)) in
  [|
    ( "point-employee",
      8,
      fun r ->
        Printf.sprintf "[<e.ename, e.estatus> OF EACH e IN employees: e.enr = %d]"
          (Measure.between r 1 (40 * scale)) );
    ( "point-course",
      4,
      fun r ->
        Printf.sprintf "[<c.ctitle, c.clevel> OF EACH c IN courses: c.cnr = %d]"
          (Measure.between r 1 (25 * scale)) );
    ( "papers-since",
      3,
      fun r ->
        Printf.sprintf
          "[<e.ename> OF EACH e IN employees: SOME p IN papers ((p.penr = e.enr) AND (p.pyear \
           >= %d))]"
          (Measure.between r 1970 1985) );
    ( "running",
      3,
      fun r ->
        Printf.sprintf
          "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (ALL p IN papers \
           ((p.pyear <> %d) OR (e.enr <> p.penr)) OR SOME c IN courses ((c.clevel <= %s) AND \
           SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]"
          (Measure.between r 1970 1985) (pick r levels) );
    ( "existential",
      2,
      fun r ->
        Printf.sprintf
          "[<e.ename> OF EACH e IN employees: (e.estatus = %s) AND SOME c IN courses \
           ((c.clevel <= %s) AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr)))]"
          (pick r statuses) (pick r levels) );
  |]

type schedule = {
  texts : string array;  (* distinct request texts, by id *)
  per_conn : int array array;  (* each connection's request ids, in order *)
}

let schedule seed n =
  let ids = Hashtbl.create 256 and texts = ref [] and next = ref 0 in
  let weights = Array.map (fun (_, w, _) -> w) shapes in
  let per_conn =
    Array.init connections (fun c ->
        let r = Measure.sub seed (10 + c) in
        let next_shape = Measure.mixer r weights in
        Array.init n (fun _ ->
            let _, _, make = shapes.(next_shape ()) in
            let text = make r in
            match Hashtbl.find_opt ids text with
            | Some id -> id
            | None ->
              let id = !next in
              incr next;
              Hashtbl.add ids text id;
              texts := text :: !texts;
              id))
  in
  { texts = Array.of_list (List.rev !texts); per_conn }

(* What the server sends for a relation: its rendering, line by line. *)
let render rel =
  String.split_on_char '\n' (Fmt.str "%a@?" Relation.pp rel) |> List.filter (fun l -> l <> "")

type answer = { tuples : Tuple.t list; lines : string list }

let oracle db text =
  let rel = Naive_eval.run db (Pascalr_lang.Elaborate.query_of_string db text) in
  { tuples = Relation.to_list rel; lines = render rel }

(* --- The server subprocess ------------------------------------------- *)

type server = { pid : int; mutable reaped : bool }

let running : server list ref = ref []

let reap s =
  if not s.reaped then begin
    s.reaped <- true;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] s.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ()
  end

(* Every exit path — normal, exception, or exit from elsewhere — kills
   and reaps the servers this process started. *)
let () = at_exit (fun () -> List.iter reap !running)

let log_path ctx = Filename.concat ctx.Common.run_dir "server.log"

(* The server starts with the PASCALR_* variables removed, so it runs on
   the library defaults whatever the caller's environment holds. *)
let spawn ctx sock =
  let env =
    Unix.environment ()
    |> Array.to_list
    |> List.filter (fun kv -> not (Common.is_pascalr_var kv))
    |> Array.of_list
  in
  let log =
    Unix.openfile (log_path ctx)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [|
      ctx.Common.pascalr; "serve"; "--db"; "university"; "--scale"; string_of_int scale;
      "--seed"; string_of_int db_seed; "--socket"; sock;
    |]
  in
  let pid = Unix.create_process_env ctx.Common.pascalr argv env null log log in
  Unix.close null;
  Unix.close log;
  let s = { pid; reaped = false } in
  running := s :: !running;
  s

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ ->
    s.reaped <- true;
    true
  | exception Unix.Unix_error _ -> true

let server_failed ctx what =
  let log =
    try In_channel.with_open_text (log_path ctx) In_channel.input_all with Sys_error _ -> ""
  in
  failwith (Printf.sprintf "pascalr serve %s; its output:\n%s" what log)

(* Connect once the server listens; the first successful connect is a
   real connection, not a probe. *)
let connect ctx s sock ~timeout =
  let deadline = Measure.now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if exited s then server_failed ctx "exited before listening";
      if Measure.now () > deadline then server_failed ctx "did not listen in time";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Start a server and open the connections: the set-up a client pays. *)
let start ctx =
  (* Relative to the working directory both processes share, which
     keeps the socket path within the kernel's length limit. *)
  let sock = Filename.concat ctx.Common.run_dir (Printf.sprintf "s%d" (List.length !running)) in
  let s = spawn ctx sock in
  let fds = Array.init connections (fun _ -> connect ctx s sock ~timeout:60.0) in
  (s, fds)

let stop (s, fds) =
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
  reap s

(* --- The closed loop over the socket --------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  ids : int array;
  mutable next : int;  (* index into [ids] of the next request to send *)
  mutable sent_at : float;
  mutable timed : bool;  (* the request in flight was sent in the timed window *)
  mutable got : string list;  (* response so far, newest first *)
  pending : Buffer.t;  (* a partial line *)
  mutable alive : bool;
  mutable busy : bool;
}

type tally = {
  lat : Measure.samples;
  ends : Measure.samples;  (* completion times of timed requests, from the window's start *)
  mutable attempted : int;
  mutable failed : int;
  mutable timed_ops : int;
  mutable timed_failed : int;
  done_warm : int array;  (* per connection, requests sent before the timed window *)
}

let send c text =
  let msg = Bytes.of_string (text ^ "\n") in
  let rec go off =
    if off < Bytes.length msg then go (off + Unix.write c.fd msg off (Bytes.length msg - off))
  in
  go 0

(* Two connections, one request in flight on each; a response ends with
   a "." line.  Requests sent before [timed_from] are the warm-up; none
   is sent after [until].  A connection that breaks fails its request in
   flight and stops — a dying server shows as failed requests. *)
let drive ~sched ~expected ~failed_ms ~timed_from ~until conns tally =
  let buf = Bytes.create 65536 in
  let n_ids c = Array.length c.ids in
  let rec issue c =
    let now = Measure.now () in
    if now >= until then c.busy <- false
    else begin
      let id = c.ids.(c.next mod n_ids c) in
      c.sent_at <- now;
      c.timed <- now >= timed_from;
      c.busy <- true;
      c.got <- [];
      match send c sched.texts.(id) with
      | () -> ()
      | exception Unix.Unix_error _ -> fail_in_flight c
    end
  and fail_in_flight c =
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    if c.timed then begin
      Measure.add tally.ends (Measure.now () -. timed_from);
      tally.timed_ops <- tally.timed_ops + 1;
      tally.timed_failed <- tally.timed_failed + 1;
      Measure.add tally.lat failed_ms
    end;
    c.busy <- false;
    c.alive <- false
  in
  let complete c k =
    let ms = (Measure.now () -. c.sent_at) *. 1000.0 in
    let id = c.ids.(c.next mod n_ids c) in
    let ok = List.rev c.got = (Hashtbl.find expected sched.texts.(id)).lines in
    tally.attempted <- tally.attempted + 1;
    if not ok then tally.failed <- tally.failed + 1;
    if c.timed then begin
      Measure.add tally.ends (Measure.now () -. timed_from);
      tally.timed_ops <- tally.timed_ops + 1;
      if ok then Measure.add tally.lat ms
      else begin
        tally.timed_failed <- tally.timed_failed + 1;
        Measure.add tally.lat failed_ms
      end
    end
    else tally.done_warm.(k) <- tally.done_warm.(k) + 1;
    c.next <- c.next + 1;
    issue c
  in
  let on_line c k line =
    if line = "." then complete c k else c.got <- line :: c.got
  in
  let read c k =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> fail_in_flight c
    | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get buf i = '\n' then begin
          Buffer.add_subbytes c.pending buf !start (i - !start);
          let line = Buffer.contents c.pending in
          Buffer.clear c.pending;
          start := i + 1;
          on_line c k line
        end
      done;
      Buffer.add_subbytes c.pending buf !start (n - !start)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> fail_in_flight c
  in
  Array.iter (fun c -> if c.alive && not c.busy then issue c) conns;
  let active () = Array.exists (fun c -> c.alive && c.busy) conns in
  while active () do
    let fds =
      Array.to_list conns |> List.filter (fun c -> c.alive && c.busy) |> List.map (fun c -> c.fd)
    in
    match Unix.select fds [] [] 10.0 with
    | [], _, _ ->
      (* Ten seconds without a byte: the server is stuck. *)
      Array.iter (fun c -> if c.alive && c.busy then fail_in_flight c) conns
    | ready, _, _ ->
      Array.iteri (fun k c -> if c.alive && c.busy && List.memq c.fd ready then read c k) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* --- The in-process replay ------------------------------------------- *)

(* The server's request path without the socket: parse + elaborate,
   then [Session.read] + [Session.Txn.exec] on the connection's own
   session, which is what [pascalr serve] does with a line.  Rendering
   the result stays in the server's share. *)
let exec_plain db session text =
  let q = Pascalr_lang.Elaborate.query_of_string db text in
  Session.read session (fun txn -> Session.Txn.exec txn q)

let exec_traced sp c db session text =
  let q = Span.with_span sp "lang" (fun () -> Pascalr_lang.Elaborate.query_of_string db text) in
  Layers.adhoc sp c session q

(* What each connection sent, replayed in process on two fresh sets of
   sessions: the warm-up untraced on both, then every timed request
   untraced on [plain] and traced on [traced], back to back.  Returns
   the number of wrong answers. *)
let replay_paired db sched expected ~warm ~timed sp c paired =
  let sessions () = Array.init connections (fun _ -> Session.create db) in
  let plain = sessions () and traced = sessions () in
  let failed = ref 0 in
  let check text = function
    | Ok rel
      when List.equal Tuple.equal (Relation.to_list rel) (Hashtbl.find expected text).tuples ->
      ()
    | Ok _ | Error _ -> incr failed
  in
  for k = 0 to connections - 1 do
    let ids = sched.per_conn.(k) in
    for i = 0 to warm.(k) + timed.(k) - 1 do
      let text = sched.texts.(ids.(i mod Array.length ids)) in
      let a, b =
        if i < warm.(k) then
          ( Common.attempt (fun () -> exec_plain db plain.(k) text),
            Common.attempt (fun () -> exec_plain db traced.(k) text) )
        else
          Layers.pair paired sp
            ~plain:(fun () -> exec_plain db plain.(k) text)
            ~traced:(fun () -> exec_traced sp c db traced.(k) text)
      in
      check text a;
      check text b
    done
  done;
  !failed

(* --- The run ------------------------------------------------------------ *)

let run (ctx : Common.ctx) =
  let sched = schedule ctx.Common.seed (10_000 * (ctx.Common.seconds + 2)) in
  let db = Workload.University.generate (Workload.University.scaled ~seed:db_seed scale) in
  Common.describe_db "university" db;
  let expected, oracle_s = Common.oracles sched.texts (oracle db) in
  Measure.info "requests: %d distinct texts over %d shapes; plan cache capacity 64 per connection"
    (Array.length sched.texts) (Array.length shapes);
  Measure.info "oracle: %d distinct requests answered by Naive_eval in %.2f s (not in setup_s)"
    (Hashtbl.length expected) oracle_s;
  (* Set-up: start the server and connect, several times; the last one
     serves the run. *)
  let setups = ref [] in
  let server = ref None in
  for k = 1 to Common.setup_repeats do
    let started, s = Common.time (fun () -> start ctx) in
    setups := s :: !setups;
    if k < Common.setup_repeats then stop started else server := Some started
  done;
  let setup_s = Measure.median !setups in
  let proc, fds = Option.get !server in
  Fun.protect ~finally:(fun () -> stop (proc, fds)) @@ fun () ->
  (* The high-water mark once the server is up, in case it dies. *)
  let rss_started = Measure.vm_hwm_mb (string_of_int proc.pid) in
  let conns =
    Array.mapi
      (fun k fd ->
        {
          fd;
          ids = sched.per_conn.(k);
          next = 0;
          sent_at = 0.0;
          timed = false;
          got = [];
          pending = Buffer.create 256;
          alive = true;
          busy = false;
        })
      fds
  in
  let tally =
    {
      lat = Measure.samples ();
      ends = Measure.samples ();
      attempted = 0;
      failed = 0;
      timed_ops = 0;
      timed_failed = 0;
      done_warm = Array.make connections 0;
    }
  in
  let t_warm = Measure.now () +. Common.warmup_s in
  let until = t_warm +. float_of_int ctx.Common.seconds in
  drive ~sched ~expected ~failed_ms:(Common.failed_latency_ms ctx) ~timed_from:t_warm ~until
    conns tally;
  let rss =
    match Measure.vm_hwm_mb (string_of_int proc.pid) with Some v -> Some v | None -> rss_started
  in
  if Array.exists (fun c -> not c.alive) conns then
    Measure.info "a server connection broke; its request in flight counts as failed";
  Measure.info "failed_frac=%.6f"
    (float_of_int tally.timed_failed /. float_of_int (max 1 tally.timed_ops));
  if not ctx.Common.trace then
    {
      Measure.attempted = tally.attempted;
      failed = tally.failed;
      metrics =
        Common.end_to_end ~ends:tally.ends ~reads:tally.lat ~setup_s ~rss_mb:rss;
    }
  else begin
    let warm = tally.done_warm in
    let timed = Array.mapi (fun k c -> c.next - warm.(k)) conns in
    let sp = Span.create () and c = Layers.counts () and paired = Layers.pairing () in
    let replay_failed = replay_paired db sched expected ~warm ~timed sp c paired in
    Common.write_spans ctx sp;
    let replays = 2 * (Array.fold_left ( + ) 0 warm + Array.fold_left ( + ) 0 timed) in
    let socket_ms =
      let sum = ref 0.0 in
      for i = 0 to Measure.count tally.lat - 1 do
        sum := !sum +. tally.lat.Measure.data.(i)
      done;
      !sum /. float_of_int (max 1 (Measure.count tally.lat))
    in
    let inproc_ms =
      paired.Layers.plain_s *. 1000.0 /. float_of_int (max 1 paired.Layers.pairs)
    in
    Measure.info "mean latency: socket %.4f ms, in-process replay %.4f ms" socket_ms inproc_ms;
    {
      Measure.attempted = tally.attempted + replays;
      failed = tally.failed + replay_failed;
      metrics =
        Layers.report sp c
          ~outside:("server", Float.max 0.0 (socket_ms -. inproc_ms) /. Float.max 1e-9 socket_ms)
          ~extra:
            (Layers.pairing_metrics paired
            @ [
                ("server.self_ms", socket_ms -. inproc_ms);
                ( "failed_frac",
                  float_of_int tally.timed_failed /. float_of_int (max 1 tally.timed_ops) );
              ]);
    }
  end
