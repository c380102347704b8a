(** Execution options: every knob of one query execution in a single
    record, so signatures stay stable as knobs are added. *)

type t = {
  strategy : Strategy.t;  (** which of the paper's strategies to enable *)
  join_order : Combination.join_order;
      (** combination-phase join ordering *)
  batch_size : int;
      (** window size of the vectorized stream kernels; [1] runs the
          scalar per-tuple emit (the differential oracle) *)
  use_index : bool;
      (** let the collection phase serve restrictions from declared
          secondary indexes; [false] forces heap scans everywhere (the
          differential oracle and the [PASCALR_NO_INDEX] CI leg) *)
  force_join : Cost.join_algo option;
      (** override the adaptive per-step join-algorithm choice of the
          combination phase; [None] (the default) lets the cost model
          decide per {!Cost.choose_join_algo} *)
}

val default : t
(** {!Strategy.full} with {!Combination.Cost_ordered} joins;
    [batch_size] from [PASCALR_BATCH_SIZE] if set to a positive
    integer, else 2048; [use_index] true unless [PASCALR_NO_INDEX] is
    set truthy; [force_join] [None]. *)

val default_batch_size : int
(** The resolved [batch_size] default described under {!default}. *)

val default_use_index : bool
(** The resolved [use_index] default described under {!default}. *)

val make :
  ?strategy:Strategy.t ->
  ?join_order:Combination.join_order ->
  ?batch_size:int ->
  ?use_index:bool ->
  ?force_join:Cost.join_algo ->
  unit ->
  t
(** [batch_size] is clamped to at least 1. *)

val join_order_to_string : Combination.join_order -> string
val join_order_of_string : string -> Combination.join_order option

val fingerprint : t -> string
(** Injective textual form; part of the plan-cache key, because every
    option can change the compiled plan. *)

val pp : t Fmt.t
