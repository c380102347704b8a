(** Strategy 4: quantifier evaluation in the collection phase (paper
    Section 4.4).

    The rightmost prefix variable is pushed into the matrix as a derived
    predicate when (a) quantifier swapping can move it innermost (equal
    quantifiers swap freely; independent ones by Lemma 1), and (b) each
    conjunction mentioning it contains exactly one dyadic join term over
    one other variable plus monadic terms (for ALL, additionally only
    one conjunction may mention it, once the conjunctions made of a
    single join-term-only derived predicate over it have been absorbed
    negated into its range by S3's ALL identity).  Iterates to a
    fixpoint, so chains like Example 4.7's cset/tset/pset program arise
    naturally. *)

open Relalg

val apply : Database.t -> Plan.t -> Plan.t
(** Precondition: every prefix range non-empty (adaptation ran). *)

val movable_to_rightmost :
  Plan.t -> Normalize.prefix_entry list -> Normalize.prefix_entry -> bool
(** Exposed for testing: the quantifier-swapping side condition. *)

val absorbed_vars : Plan.t -> Calculus.var list
(** The ALL variables a plan pushed after absorbing conjunctions into
    their ranges (their pushed range carries a filter). *)
