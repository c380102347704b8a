(** Strategy 3: extended range expressions (paper Section 4.3).

    Monadic join terms move from the matrix into the range expressions:
    for a free/SOME variable, a monadic atom occurring in every
    conjunction that mentions the variable; for an ALL variable, a
    conjunction consisting of a single monadic atom is absorbed negated.
    Emptiness of each new extended range is checked against the live
    database and handled per Lemma 1 (the prenex context is only valid
    for non-empty ranges). *)

open Relalg

val apply : ?cnf:bool -> Database.t -> Standard_form.t -> Standard_form.t
(** With [~cnf:true] (default false) the paper's future-work refinement
    applies: pure-monadic conjunctions of an ALL variable are absorbed
    negated (restrictions in conjunctive normal form, removing whole
    conjunctions from the matrix), and free/SOME ranges additionally
    shrink by the disjunction of their conjunctions' monadic terms. *)

val range_has_params : Calculus.range -> bool
(** Does the range's restriction mention a [$param]?  Its emptiness is
    then unknown until execution, so rewrites whose soundness depends on
    it are skipped. *)
