(** Execution options: every knob of one query execution in a single
    record, so signatures stay stable as knobs are added. *)

type t = {
  strategy : Strategy.t;  (** which of the paper's strategies to enable *)
  join_order : Combination.join_order;
      (** combination-phase join ordering *)
  use_index : bool;
      (** let the collection phase serve restrictions from declared
          secondary indexes; [false] forces heap scans everywhere (the
          differential oracle and the [PASCALR_NO_INDEX] CI leg) *)
}

val default : t
(** {!Strategy.full} with {!Combination.Cost_ordered} joins;
    [use_index] true unless [PASCALR_NO_INDEX] is set truthy. *)

val default_use_index : bool
(** The resolved [use_index] default described under {!default}. *)

val make :
  ?strategy:Strategy.t ->
  ?join_order:Combination.join_order ->
  ?use_index:bool ->
  unit ->
  t

val join_order_to_string : Combination.join_order -> string
val join_order_of_string : string -> Combination.join_order option

val fingerprint : t -> string
(** Injective textual form; part of the plan-cache key, because every
    option can change the compiled plan. *)

val pp : t Fmt.t
