(* Golden-file test pinning the `pascalr analyze --json` report schema.

   The document is produced by the same library code path the CLI uses
   (Analyze.run + Analyze.to_json) on a fixed suppliers division query,
   so any change to the report shape — added, removed, renamed or
   retyped keys — shows up as a golden diff instead of silently breaking
   downstream consumers.  Since timings and counters vary run to run,
   the golden pins the sorted set of JSON key {e paths} with type tags,
   not values; the serialized text itself is additionally checked for
   well-formedness by the RFC 8259 parser in Test_obs. *)

let golden_path =
  (* dune runs tests with the test directory as cwd and declares the
     golden file as a dependency, so a relative path works both there
     and under `dune exec` from the repo root. *)
  if Sys.file_exists "golden/analyze_schema.golden" then
    "golden/analyze_schema.golden"
  else "test/golden/analyze_schema.golden"

(* Flatten a JSON document to its sorted, deduplicated key paths.  List
   elements share the path component "[]", so variable-length arrays
   (phase rows, span children) contribute a stable schema regardless of
   how many elements they hold. *)
let type_tag = function
  | Obs.Json.Null -> "null"
  | Obs.Json.Bool _ -> "bool"
  | Obs.Json.Int _ -> "int"
  | Obs.Json.Float _ -> "float"
  | Obs.Json.Str _ -> "string"
  | Obs.Json.List _ -> "array"
  | Obs.Json.Obj _ -> "object"

let key_paths doc =
  let acc = Hashtbl.create 64 in
  let add path j = Hashtbl.replace acc (path ^ ": " ^ type_tag j) () in
  let rec go path j =
    add path j;
    match j with
    | Obs.Json.Obj fields ->
      List.iter (fun (k, v) -> go (path ^ "." ^ k) v) fields
    | Obs.Json.List elts -> List.iter (go (path ^ "[]")) elts
    | _ -> ()
  in
  go "$" doc;
  List.sort String.compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else String.trim line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let analyze_doc () =
  Obs.Metrics.reset ();
  (* The document embeds the process-global stats and flight-recorder
     sections; reset them (and disarm slow capture) so the schema is
     independent of whatever ran earlier in this test binary — the
     analysis below then contributes exactly one entry and one ring
     record, pinning the element shapes. *)
  Obs.Query_stats.reset ();
  Obs.Flight_recorder.reset ();
  Obs.Flight_recorder.set_slow_ms None;
  let db = Workload.Suppliers.generate Workload.Suppliers.default_params in
  let q = Workload.Suppliers.ships_all_parts db in
  let a =
    Pascalr.Analyze.run ~pool_pages:8
      ~opts:(Pascalr.Exec_opts.make ~strategy:Pascalr.Strategy.full ())
      db q
  in
  Pascalr.Analyze.to_json ~database:"suppliers" ~scale:1 db q a

let test_schema_golden () =
  let doc = analyze_doc () in
  (* The emitted text must be valid JSON per the RFC 8259 checker. *)
  Test_obs.validate_json (Obs.Json.to_string doc);
  Test_obs.validate_json (Fmt.str "%a" Obs.Json.pp_pretty doc);
  let actual = key_paths doc in
  let expected = read_lines golden_path in
  if actual <> expected then begin
    (* Print the actual paths so the golden can be regenerated by
       pasting this block into test/golden/analyze_schema.golden. *)
    Printf.printf "--- actual analyze schema (%d paths) ---\n" (List.length actual);
    List.iter print_endline actual;
    Printf.printf "--- end ---\n%!";
    let missing = List.filter (fun p -> not (List.mem p actual)) expected in
    let extra = List.filter (fun p -> not (List.mem p expected)) actual in
    Alcotest.failf
      "analyze --json schema drifted from %s:\n  missing: %s\n  extra: %s"
      golden_path (String.concat "; " missing) (String.concat "; " extra)
  end

(* The schema must be insensitive to run-to-run variation: two
   evaluations produce the same key paths. *)
let test_schema_stable () =
  Alcotest.(check (list string))
    "same paths on re-run"
    (key_paths (analyze_doc ()))
    (key_paths (analyze_doc ()))

let suite =
  [
    ( "analyze-golden",
      [
        Alcotest.test_case "analyze --json schema matches golden" `Quick
          test_schema_golden;
        Alcotest.test_case "analyze --json schema is run-stable" `Quick
          test_schema_stable;
      ] );
  ]
