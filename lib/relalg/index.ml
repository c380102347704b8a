(* Indexes: relations associating component values with references
   (paper Section 3.2 and Figure 2, e.g. ind_t_cnr : RELATION <tcnr,tref>).

   An index is built on one or more components of a source relation,
   optionally *partial* (restricted by a predicate — "a (partial) INDEX
   on one relation involved in the join term is created").  Lookup by
   value supports equality join terms; [fold_entries] supports the
   general comparison operators. *)

type t = {
  source : string;
  on : string list;
  positions : int array;
  tbl : Value.reference list Value_key.table;
  mutable entry_count : int;
  probes : int Atomic.t;
      (* lookups and comparison walks against this index.  Atomic, not
         plain mutable: a permanent index on a shared database is probed
         read-only by concurrent sessions on other domains, and this
         counter is the one piece of state those probes write. *)
}

let source t = t.source
let on t = t.on
let entry_count t = t.entry_count
let probe_count t = Atomic.get t.probes
let reset_counters t = Atomic.set t.probes 0

let count_probe t =
  Atomic.incr t.probes;
  Obs.Metrics.incr "index.probes"

let create rel ~on =
  let schema = Relation.schema rel in
  let positions =
    Array.of_list (List.map (Schema.index_of schema) on)
  in
  {
    source = Relation.name rel;
    on;
    positions;
    tbl = Value_key.create 64;
    entry_count = 0;
    probes = Atomic.make 0;
  }

let add t rel tuple =
  let key = Array.to_list (Tuple.project t.positions tuple) in
  Value_key.add_multi t.tbl key (Reference.of_tuple rel tuple);
  t.entry_count <- t.entry_count + 1;
  Obs.Metrics.incr "index.entries"

(* Build by a (counted) scan of the source relation; [filter] makes the
   index partial. *)
let build ?filter rel ~on =
  Obs.Metrics.incr "index.builds";
  let t = create rel ~on in
  let keep = Option.value filter ~default:(fun _ -> true) in
  Relation.scan (fun tuple -> if keep tuple then add t rel tuple) rel;
  t

let lookup t values =
  count_probe t;
  Value_key.find_multi t.tbl values

let lookup1 t v = lookup t [ v ]

let mem t values = lookup t values <> []

let fold_entries f init t =
  Value_key.Table.fold (fun key refs acc -> f acc key refs) t.tbl init

let iter_entries f t =
  Value_key.Table.iter (fun key refs -> f key refs) t.tbl

(* Entries whose (single-component) key satisfies [v' op probe] where v'
   is the indexed value — the general-operator probe used by indirect
   join construction for non-equality join terms. *)
let fold_matching t op probe f init =
  match op with
  | Value.Eq -> List.fold_left f init (lookup t [ probe ])
  | Value.Ne | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    count_probe t;
    fold_entries
      (fun acc key refs ->
        match key with
        | [ v ] ->
          if Value.apply op v probe then List.fold_left f acc refs else acc
        | _ ->
          Errors.type_error
            "comparison probe on a multi-component index over %s" t.source)
      init t

(* Existence version of {!fold_matching}, with early exit. *)
let exists_matching t op probe =
  match op with
  | Value.Eq -> lookup t [ probe ] <> []
  | Value.Ne | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    count_probe t;
    let found = ref false in
    (try
       iter_entries
         (fun key _ ->
           match key with
           | [ v ] ->
             if Value.apply op v probe then begin
               found := true;
               raise Exit
             end
           | _ ->
             Errors.type_error
               "comparison probe on a multi-component index over %s" t.source)
         t
     with Exit -> ());
    !found

let distinct_keys t =
  fold_entries (fun acc key _ -> key :: acc) [] t |> List.length

(* Materialize the index as a relation <components..., ref>, the form
   Figure 2 declares.  Used for explanation and tests. *)
let to_relation ?(name = "") t schema_of_source =
  let attr_of n =
    Schema.attr n (Schema.type_of schema_of_source n)
  in
  let attrs = List.map attr_of t.on @ [ Schema.attr "ref" (Vtype.reference t.source) ] in
  let rel = Relation.create ~name (Schema.make attrs ~key:[]) in
  iter_entries
    (fun key refs ->
      List.iter
        (fun r ->
          Relation.insert rel
            (Tuple.of_list (key @ [ Value.VRef r ])))
        refs)
    t;
  rel
