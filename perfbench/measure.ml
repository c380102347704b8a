(* Measurement plumbing shared by the workloads: the benchmark's own
   seeded PRNG, the clock, latency samples and percentiles, GC and
   resident-memory readings, and the result line. *)

let now () = Unix.gettimeofday ()

(* --- Seeded schedule generation ------------------------------------ *)

(* splitmix64, kept here rather than borrowed from the library so that a
   change to the program's own generators cannot change the schedule. *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n). *)
let below r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

(* Uniform in [lo, hi]. *)
let between r lo hi = lo + below r (hi - lo + 1)

(* An endless stream of class indices in which class i appears exactly
   weights.(i) times in every block of sum(weights), in shuffled order:
   the mix is exact in every run, only the order depends on the seed. *)
let mixer r weights =
  let block = Array.concat (Array.to_list (Array.mapi (fun i w -> Array.make w i) weights)) in
  let pos = ref (Array.length block) in
  fun () ->
    if !pos = Array.length block then begin
      for i = Array.length block - 1 downto 1 do
        let j = below r (i + 1) in
        let t = block.(i) in
        block.(i) <- block.(j);
        block.(j) <- t
      done;
      pos := 0
    end;
    let v = block.(!pos) in
    incr pos;
    v

(* Independent sub-streams of one --seed: the schedule, the write
   generator and so on never share draws. *)
let sub seed k = rng ((seed * 1_000_003) + k)

(* --- Latency samples ------------------------------------------------ *)

type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

(* Nearest-rank percentile; also returns how many samples lie beyond
   the reported rank (a p99 is trustworthy only with at least ten). *)
let percentile s p =
  if s.n = 0 then (0.0, 0)
  else begin
    let a = Array.sub s.data 0 s.n in
    Array.sort Float.compare a;
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int s.n))) in
    (a.(rank - 1), s.n - rank)
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- Process resources --------------------------------------------- *)

(* The high-water resident set of a process, in MiB, from the kernel's
   own accounting; [None] when /proc is unavailable or the process is
   gone. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> Some (float_of_int kb /. 1024.0))
        else scan ()
    in
    let r = try scan () with Scanf.Scan_failure _ | Failure _ -> None in
    close_in ic;
    r

type gc_reading = {
  g_alloc_words : float;
  g_major : int;
  g_top_heap_words : int;
}

let gc_reading () =
  let s = Gc.quick_stat () in
  {
    g_alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    g_major = s.Gc.major_collections;
    g_top_heap_words = s.Gc.top_heap_words;
  }

(* --- Results -------------------------------------------------------- *)

type metric = string * float * string (* name, value, unit *)

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* The contract's last line: one JSON object, nothing after it. *)
let print_result r =
  let metric (name, value, unit) =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number value)
      unit
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics));
  print_newline ()

(* Human-readable lines before the result; prefixed so a reader (or a
   script) can tell them from the result line. *)
let info fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt
