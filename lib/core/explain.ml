(* Plan explanation in the paper's element-oriented statement style:
   Example 4.3's FOR EACH loops over each relation and Example 4.7's
   cset/tset/pset program.  Purely presentational — renders what the
   collection and combination phases will do. *)

open Relalg
open Calculus

let buf_add = Buffer.add_string

let describe_range (r : range) =
  match r.restriction with
  | None -> r.range_rel
  | Some (v, f) -> Fmt.str "[EACH %s IN %s: %a]" v r.range_rel pp_formula f

let describe_pushed buf indent (vm : var) (p : Plan.pushed) =
  let quant = Normalize.quant_to_string p.Plan.p_quant in
  buf_add buf
    (Fmt.str "%svlist_%s := values of %s.%s over %s%s;\n" indent p.Plan.p_var
       p.Plan.p_var p.Plan.p_inner_attr
       (Fmt.str "%a" Plan.pp_pushed_range p)
       (match p.Plan.p_monadic with
       | [] -> ""
       | atoms ->
         Fmt.str " where %a" (Fmt.list ~sep:(Fmt.any " AND ") pp_atom) atoms));
  buf_add buf
    (Fmt.str "%s  (* storage: %s; evaluates %s %s (%s.%s %s %s.%s) *)\n" indent
       (match p.Plan.p_quant, p.Plan.p_op with
       | _, (Value.Lt | Value.Le | Value.Gt | Value.Ge) -> "min/max only"
       | Normalize.Q_all, Value.Eq | Normalize.Q_some, Value.Ne ->
         "at most one value"
       | _ -> "full value list")
       quant p.Plan.p_var vm p.Plan.p_outer_attr
       (Value.comparison_to_string p.Plan.p_op)
       p.Plan.p_var p.Plan.p_inner_attr)

let explain_plan (plan : Plan.t) =
  let buf = Buffer.create 1024 in
  buf_add buf "(* collection phase *)\n";
  (* Value lists of pushed quantifiers, innermost first: a list's range
     filters and nested predicates are built before it. *)
  let rec emit_pushed (vm, (p : Plan.pushed)) =
    List.iter
      (fun n -> emit_pushed (p.Plan.p_var, n))
      (p.Plan.p_filter @ p.Plan.p_nested);
    describe_pushed buf "" vm p
  in
  List.iter
    (fun (c : Plan.conj) -> List.iter emit_pushed c.Plan.derived)
    plan.Plan.conjs;
  (* Base single lists. *)
  List.iter
    (fun v ->
      match Plan.range_of plan v with
      | Some r ->
        buf_add buf (Fmt.str "sl_%s := [<@%s> OF EACH %s IN %s: true];\n" v v v (describe_range r))
      | None -> ())
    (Plan.variable_order plan);
  (* Indirect joins. *)
  List.iteri
    (fun i (c : Plan.conj) ->
      let dyadics = List.filter is_dyadic c.Plan.atoms in
      List.iter
        (fun a ->
          buf_add buf
            (Fmt.str "ij_%d := indirect join for %a;\n" i pp_atom a))
        dyadics)
    plan.Plan.conjs;
  buf_add buf "(* combination phase *)\n";
  List.iteri
    (fun i (c : Plan.conj) ->
      buf_add buf
        (Fmt.str "refrel_%d := combine [%a]%s;\n" i Plan.pp_conj c
           (let missing =
              List.filter
                (fun v -> not (Var_set.mem v (Plan.conj_vars c)))
                (Plan.variable_order plan)
            in
            match missing with
            | [] -> ""
            | vs -> Fmt.str " x padding (%s)" (String.concat ", " vs))))
    plan.Plan.conjs;
  buf_add buf "refrel := union of all refrel_i;\n";
  List.iter
    (fun (e : Normalize.prefix_entry) ->
      match e.Normalize.q with
      | Normalize.Q_some ->
        buf_add buf (Fmt.str "refrel := project away %s (SOME);\n" e.Normalize.v)
      | Normalize.Q_all ->
        buf_add buf (Fmt.str "refrel := refrel DIVIDED BY sl_%s (ALL);\n" e.Normalize.v))
    (List.rev plan.Plan.prefix);
  buf_add buf "(* construction phase *)\n";
  buf_add buf
    (Fmt.str "result := [<%s> OF dereferenced refrel];\n"
       (String.concat ", "
          (List.map (fun (v, a) -> v ^ "." ^ a) plan.Plan.select)));
  Buffer.contents buf

let explain ?(strategy = Strategy.full) db query =
  let plan = Session.plan_only ~opts:(Exec_opts.make ~strategy ()) db query in
  Fmt.str "strategy: %a\n%s" Strategy.pp strategy (explain_plan plan)
