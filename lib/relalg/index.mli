(** Indexes associating component values with references (paper Section
    3.2, Figure 2).  Built by a counted scan; optionally partial. *)

type t

val create : Relation.t -> on:string list -> t
(** An empty index on the given components (for incremental builds while
    another computation scans the relation — strategy 1). *)

val add : t -> Relation.t -> Tuple.t -> unit
(** Index one element (the element must belong to the relation). *)

val build : ?filter:(Tuple.t -> bool) -> Relation.t -> on:string list -> t
(** Build by scanning; [filter] makes the index partial. *)

val source : t -> string
val on : t -> string list
val entry_count : t -> int
val distinct_keys : t -> int

val probe_count : t -> int
(** Lookups and comparison walks served by this index. *)

val reset_counters : t -> unit

val lookup : t -> Value.t list -> Value.reference list
val lookup1 : t -> Value.t -> Value.reference list
val mem : t -> Value.t list -> bool

val fold_entries :
  ('a -> Value.t list -> Value.reference list -> 'a) -> 'a -> t -> 'a

val iter_entries : (Value.t list -> Value.reference list -> unit) -> t -> unit

val fold_matching :
  t ->
  Value.comparison ->
  Value.t ->
  ('a -> Value.reference -> 'a) ->
  'a ->
  'a
(** [fold_matching t op probe f init] folds over references whose indexed
    value [v] satisfies [v op probe].  Constant-time for [Eq], a walk of
    the distinct values otherwise.
    @raise Errors.Type_error for comparison probes on multi-component
    indexes. *)

val exists_matching : t -> Value.comparison -> Value.t -> bool
(** Existence version of {!fold_matching}, with early exit. *)

val to_relation : ?name:string -> t -> Schema.t -> Relation.t
(** Materialize as the Figure-2 style relation [<components..., ref>];
    the second argument is the source relation's schema. *)
