(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --pascalr PATH

   Runs one workload closed loop for S seconds from inputs generated
   from seed N, checks every answer, and prints the metrics as the last
   line of standard output (see README.md in this directory).  With
   --trace 1 it also replays the same requests under the benchmark's
   span recorder and prints the per-layer metrics instead. *)

let workloads =
  [
    ("division", Division.run);
    ("oltp-index", Oltp.run);
    ("adhoc-serve", Serve.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload division|oltp-index|adhoc-serve --seed N --seconds S \
     --trace 0|1 --pascalr PATH";
  exit 2

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let seconds = int_arg "seconds" in
  if seconds < 1 then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (match List.find_opt Common.is_pascalr_var (Array.to_list (Unix.environment ())) with
  | Some kv ->
    Printf.eprintf "perfbench: refusing to run with %s set\n" kv;
    exit 2
  | None -> ());
  (* A closed connection must surface as EPIPE on the socket, not kill
     the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let base = Filename.concat "perfbench" "_run" in
  let run_dir = Filename.concat base (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  let out_dir = Filename.concat base workload in
  mkdir_p run_dir;
  mkdir_p out_dir;
  let ctx =
    { Common.seed = int_arg "seed"; seconds; trace; pascalr = get "pascalr"; run_dir; out_dir }
  in
  Measure.info "workload=%s seed=%d seconds=%d trace=%b" workload ctx.Common.seed seconds trace;
  Measure.info "input exec_opts=%s" (Pascalr.Exec_opts.fingerprint Pascalr.Exec_opts.default);
  match Fun.protect ~finally:(fun () -> rm_rf run_dir) (fun () -> run ctx) with
  | result ->
    Measure.print_result result;
    exit 0
  | exception e ->
    flush stdout;
    let msg = match e with Failure msg -> msg | e -> Printexc.to_string e in
    Printf.eprintf "perfbench: %s failed: %s\n" workload msg;
    exit 1
