(** Column-major tuple batches for the vectorized stream kernels.

    Every value is interned into a chain-scoped {!pool} and stored as
    its pool id, one [int array] per attribute.  Interning is injective
    with respect to {!Value.equal}, so the integer image of a row
    ({!key_of_row}) compares like the tuple itself — join tables and
    division groups hash machine integers instead of re-hashing nested
    reference keys per row.

    A batch optionally carries a selection vector (ascending live row
    indices): filters refine it, projections share the column arrays,
    and only the row-multiplying operators gather into dense columns. *)

type encoded
(** One relation's columns, encoded in iteration order. *)

type pool
(** Chain-scoped interning state plus a per-relation encode cache. *)

type t = {
  cols : int array array;     (** one column of pool ids per attribute *)
  nrows : int;                (** physical length of every column *)
  sel : int array option;     (** ascending live row indices; [None] = all *)
  pool : pool;
}

val create_pool : unit -> pool
val value : pool -> int -> Value.t

val encode_relation : pool -> Relation.t -> encoded
(** Encode a relation's contents (uninstrumented iteration order),
    memoized in the pool by physical identity and content version. *)

val register_unordered : pool -> Relation.t -> encoded -> unit
(** Hand the pool an encode of the relation's contents in INSERTION
    order — the materializer calls this with the columns it just
    decoded, so a later set-semantics pass skips the re-encode. *)

val encode_relation_unordered : pool -> Relation.t -> encoded
(** Like {!encode_relation} but may return a {!register_unordered}
    encode whose row order is not the iteration order.  The row set is
    always the relation's contents; only order-insensitive consumers
    (the columnar divide) may use this. *)

val encoded_rows : encoded -> int

val of_encoded : pool -> encoded -> off:int -> len:int -> t
(** Zero-copy window onto an encoded relation: shared columns, the
    selection vector naming rows [off .. off+len-1]. *)

val live_count : t -> int
val live_iter : (int -> unit) -> t -> unit

val tuple : t -> int -> Tuple.t
(** Decode one row back to a boxed tuple; the cells are the physically
    original interned values. *)

val filter : t -> (int -> bool) -> t
(** Refine the selection vector to the live rows satisfying the
    predicate (given row indices). *)

val project : t -> int array -> t
(** Share the named columns; no copying. *)

val key_of_row : int array array -> int array -> int -> int array
(** Integer key of a row over the positioned columns. *)

val gather_cols : int array array -> int array -> int array array
(** Dense copies of the columns at the given row indices. *)

val of_cols : pool -> int array array -> int -> t

(** Growable integer vector — gather-index accumulator for joins whose
    output size is unknown up front. *)
module Ivec : sig
  type t

  val create : unit -> t
  val push : t -> int -> unit
  val length : t -> int
  val to_array : t -> int array
end

type acc
(** Output accumulator: collects the pool ids of the rows a
    materialize actually inserts, for {!register_unordered}. *)

val acc_create : int -> acc
(** One column per destination attribute (the arity), so an empty
    output still finishes into well-shaped columns. *)

val acc_push : acc -> t -> int -> unit
(** Append the given (physical) row's cells to the accumulator. *)

val acc_finish : acc -> encoded

(** Hash tables keyed by integer rows. *)
module Ikey : Hashtbl.S with type key = int array
