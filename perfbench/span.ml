(* In-memory spans of the traced pass, recorded from the benchmark's
   side around calls into the program's public functions.

   A span has a name, a start, an end, the span that encloses it and
   the request it belongs to.  Spans are kept in memory while the pass
   runs and written out once at the end; a layer's self time is its
   spans' durations minus the time their child spans cover. *)

type span = {
  name : string;
  req : int;
  parent : int;  (* index of the enclosing span, -1 for a request root *)
  start : float;
  mutable stop : float;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable req : int;
}

let create () = { spans = [||]; len = 0; stack = []; req = 0 }

let push t sp =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) sp in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- sp;
  t.len <- t.len + 1;
  t.len - 1

let parent t = match t.stack with [] -> -1 | p :: _ -> p

let with_span t name f =
  let id =
    push t { name; req = t.req; parent = parent t; start = Measure.now (); stop = 0.0 }
  in
  t.stack <- id :: t.stack;
  let close () =
    t.spans.(id).stop <- Measure.now ();
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* A child of the innermost open span, measured by the caller — for a
   call whose layer is known only after it returns (a plan-cache lookup
   that turned out to run the planner). *)
let add_closed t name ~start ~stop =
  ignore (push t { name; req = t.req; parent = parent t; start; stop })

(* One request: the root span every other span of the request nests in. *)
let request t f =
  t.req <- t.req + 1;
  with_span t "request" f

let requests t = t.req

(* Total self time per span name, in seconds. *)
let self_times t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let sp = t.spans.(i) in
    if sp.parent >= 0 then child.(sp.parent) <- child.(sp.parent) +. (sp.stop -. sp.start)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let sp = t.spans.(i) in
    let self = sp.stop -. sp.start -. child.(i) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.name) in
    Hashtbl.replace tbl sp.name (prev +. self)
  done;
  tbl

(* Total duration and count of the spans with a name, in seconds. *)
let total t name =
  let sum = ref 0.0 and n = ref 0 in
  for i = 0 to t.len - 1 do
    let sp = t.spans.(i) in
    if String.equal sp.name name then begin
      sum := !sum +. (sp.stop -. sp.start);
      incr n
    end
  done;
  (!sum, !n)

(* Tab-separated, one span a line, times in microseconds from the first
   span's start. *)
let write_tsv t path =
  let oc = open_out path in
  output_string oc "id\treq\tparent\tname\tstart_us\tend_us\n";
  let t0 = if t.len = 0 then 0.0 else t.spans.(0).start in
  for i = 0 to t.len - 1 do
    let sp = t.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" i sp.req sp.parent sp.name
      ((sp.start -. t0) *. 1e6)
      ((sp.stop -. t0) *. 1e6)
  done;
  close_out oc
