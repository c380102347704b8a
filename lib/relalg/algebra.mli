(** Relational algebra over keyed relations — the operator repertoire of
    the paper's combination phase: join / Cartesian product to combine
    conjunctions, union for the disjunctive form, projection for SOME and
    division for ALL, plus the semijoin/antijoin pair of Section 4.4. *)

val select : ?name:string -> (Tuple.t -> bool) -> Relation.t -> Relation.t

val project : ?name:string -> Relation.t -> string list -> Relation.t
(** Duplicate-eliminating projection onto the named attributes. *)

val rename : ?name:string -> Relation.t -> (string * string) list -> Relation.t

val product : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Cartesian product; attribute names must stay distinct. *)

val theta_join :
  ?name:string ->
  (Tuple.t -> Tuple.t -> bool) ->
  Relation.t ->
  Relation.t ->
  Relation.t

val equi_join :
  ?name:string ->
  on:(string * string) list ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** Hash join on equated attribute pairs (left name, right name). *)

val merge_join :
  ?name:string ->
  on:(string * string) list ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** Sort-merge join; same contract as {!equi_join} (the paper's [6,9]
    operations for the combination phase). *)

val nested_loop_join :
  ?name:string ->
  on:(string * string) list ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** Reference nested-loop implementation of the same contract. *)

val natural_join : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Equi-join on shared names with duplicated columns merged. *)

val union : ?name:string -> Relation.t -> Relation.t -> Relation.t
val union_all : ?name:string -> Schema.t -> Relation.t list -> Relation.t
val inter : ?name:string -> Relation.t -> Relation.t -> Relation.t
val diff : ?name:string -> Relation.t -> Relation.t -> Relation.t

val semijoin :
  ?name:string ->
  on:(string * string) list ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** [semijoin ~on a b]: elements of [a] joining at least one of [b]. *)

val antijoin :
  ?name:string ->
  on:(string * string) list ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** [antijoin ~on a b]: elements of [a] joining none of [b] — the
    universal counterpart of the semijoin. *)

val divide :
  ?name:string ->
  on:(string * string) list ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** [divide ~on r s]: quotient tuples of [r] (over its attributes not in
    [on]) whose group covers every distinct [on]-image of [s].  An empty
    divisor yields all quotient projections.
    @raise Errors.Schema_error if no quotient attributes remain. *)

val cardinality : Relation.t -> int

(** Fused streaming operators: the combination phase's one engine.  A
    stream describes a kernel chain over one source relation, so a
    whole operator chain allocates one output relation (at
    {!Stream.materialize}) instead of one per operator.  Joins build an
    integer-keyed table on the materialized side once and probe it with
    the streamed rows; counters
    [combination.join_rows_in]/[combination.join_rows_out] and the
    [algebra.fused.*] tallies record the traffic. *)
module Stream : sig
  type t

  val schema : t -> Schema.t

  val of_relation : ?pool:Batch.pool -> Relation.t -> t
  (** [?pool] shares one interning pool (and its per-relation encode
      cache) across the chains of a query, so a base relation padded
      into several disjuncts is encoded once.  Defaults to a fresh
      pool per chain. *)

  val project : t -> string list -> t
  (** Streaming projection; duplicates pass through to the
      materialization, whose whole-tuple key collapses them. *)

  val natural_join : t -> Relation.t -> t
  (** Natural join: the stream probes, the relation is the build side
      of a hash join.  Degenerates to a semijoin when the build side
      adds no columns, and to {!product} when no attribute names are
      shared. *)

  val product : t -> Relation.t -> t

  val window : int
  (** Rows per batch that {!materialize} drives through the chain. *)

  val materialize : ?name:string -> t -> Relation.t
  (** Run the chain once, collecting into a whole-tuple-keyed relation:
      the source is encoded into pool-id columns ({!Batch}) and driven
      through the kernels in {!window}-row batches, and the surviving
      rows are decoded into the output.  As a set the result equals
      that of the materialized top-level operators over the same
      inputs. *)
end
