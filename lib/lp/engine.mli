(** LP engine identity and the float pre-solve switch.

    Every production LP runs on the sparse revised simplex ({!Revised})
    behind {!Simplex.Make}; {!Tableau} is a reference kept for tests and
    benches only and is never selected here.  The engine value survives
    so reports (the benchmark's environment line, for instance) can
    name the engine that produced their numbers. *)

type t = Sparse

val get : unit -> t
(** The engine behind {!Simplex.Make}: always {!Sparse}. *)

val to_string : t -> string
(** ["sparse"]. *)

val set_presolve : bool -> unit

val presolve_enabled : unit -> bool
(** Whether exact feasibility solves may first guess a basis with a
    floating-point revised simplex and promote it to exact Q (the guess
    is always re-verified exactly; a float "infeasible" is never
    trusted).  Off by default; the CLI's [--lp-presolve] enables it. *)
