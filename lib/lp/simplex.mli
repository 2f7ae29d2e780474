(** Two-phase primal simplex with Bland's anti-cycling rule.

    Functorised over {!Field.S}: with {!Field.Exact} every answer
    (feasible / infeasible / optimal value) is certified by exact rational
    arithmetic, which is what the binary search of Theorem V.2 and the
    iterative-rounding engine of Section VI rely on.

    Solutions returned are {e basic} feasible solutions (vertices of the
    standard-form polyhedron): the Lenstra–Shmoys–Tardos rounding step
    depends on this to bound the fractional support.

    Every entry runs the sparse revised engine ({!Revised}), the one
    production LP engine, inside a [simplex.solve] span that also feeds
    the solve and pivots-per-solve metrics.  The result types are
    {!Revised.Make}'s, re-exported by type equality.  The dense
    {!Tableau} follows the same pivot rules and serves only as the
    tests' and benches' reference. *)

type budget = Pivot_budget.t = {
  mutable pivots_left : int;
  total : int;  (** the initial allowance, for consumed-vs-allotted reporting *)
}
(** A deterministic pivot allowance, shared by every solver call that
    receives it: each pivot decrements the counter, and a solve attempted
    with an empty budget raises {!Pivot_limit}.  Field-independent, so
    one budget can meter a whole pipeline of LP solves. *)

val budget : int -> budget

val consumed : budget -> int
(** Pivots spent so far: [total - pivots_left]. *)

exception Pivot_limit
(** Raised mid-solve when the supplied {!budget} runs out. *)

exception Stall
(** Raised instead of the silent Bland fallback when a solve is run with
    [~on_stall:`Fail] and Dantzig pricing exceeds the degenerate-pivot
    threshold. *)

module Make (F : Field.S) : sig
  type solution = Revised.Make(F).solution = {
    x : F.t array;  (** values of the original decision variables *)
    objective : F.t;  (** objective value at [x] *)
    basic : bool array;  (** [basic.(v)] iff variable [v] is basic *)
  }

  type result = Revised.Make(F).result = Optimal of solution | Infeasible | Unbounded

  type pricing = Revised.Make(F).pricing =
    | Bland  (** smallest eligible index — anti-cycling, more pivots *)
    | Dantzig
        (** most negative reduced cost — the default; falls back to
            Bland permanently after a run of degenerate pivots, so
            termination is still guaranteed *)

  val solve :
    ?pricing:pricing ->
    ?budget:budget ->
    ?on_stall:[ `Bland | `Fail ] ->
    ?maximize:bool ->
    F.t Lp_problem.t ->
    result
  (** Minimises the objective by default.  [budget] meters pivots
      (raising {!Pivot_limit} when exhausted); [on_stall] selects the
      degeneracy response (default [`Bland], the silent rule switch). *)

  val feasible :
    ?pricing:pricing ->
    ?budget:budget ->
    ?on_stall:[ `Bland | `Fail ] ->
    F.t Lp_problem.t ->
    solution option
  (** Phase-1 only: [Some] basic feasible solution, or [None].  The
      problem's objective is ignored. *)

  val feasible_basis :
    ?pricing:pricing ->
    ?budget:budget ->
    ?on_stall:[ `Bland | `Fail ] ->
    ?warm:Basis.t ->
    F.t Lp_problem.t ->
    (solution * Basis.t) option
  (** Like {!feasible}, additionally returning the optimal basis as a
      structural {!Basis.t} descriptor.  A later solve on a similar
      problem can pass the descriptor back as [?warm]: the proposal is
      re-factorised and re-verified in the solver's field — accepted
      hints skip phase 1 entirely, stale or corrupted ones are repaired
      or rejected (never trusted), so the verdict and solution are
      unaffected by hint quality.  With
      [--lp-presolve] (see {!Engine.set_presolve}) an exact-field solve
      first runs a float revised solve and uses {e its} basis as the
      hint. *)

  type feasibility = Revised.Make(F).feasibility =
    | Feasible of solution
    | Infeasible_certificate of F.t array
        (** A Farkas witness [y], one entry per constraint in declaration
            order: [y] respects the row senses ([y_i ≤ 0] for ≤ rows,
            [y_i ≥ 0] for ≥ rows), prices every variable column
            non-positively and the right-hand side positively — so no
            [x ≥ 0] can satisfy the system.  With {!Field.Exact} this is
            a machine-checkable proof of infeasibility. *)

  val feasible_certified :
    ?pricing:pricing ->
    ?budget:budget ->
    ?on_stall:[ `Bland | `Fail ] ->
    F.t Lp_problem.t ->
    feasibility
  (** Like {!feasible} but returns the Farkas certificate on the
      infeasible side (recovered from the phase-1 duals). *)

  val check_farkas : F.t Lp_problem.t -> F.t array -> bool
  (** Independent verification of a certificate against the original
      problem statement. *)

  (** {1 Optimality certificates}

      With {!Field.Exact}, a [Certified_optimal] result is a
      machine-checkable proof: the primal point is feasible, the dual
      multipliers are dual-feasible, and strong duality [cᵀx = bᵀy]
      pins the value. *)

  type certified = Revised.Make(F).certified = {
    primal : solution;
    duals : F.t array;  (** one multiplier per constraint, in order *)
  }

  type certified_result = Revised.Make(F).certified_result =
    | Certified_optimal of certified
    | Certified_infeasible of F.t array  (** Farkas witness, as above *)
    | Certified_unbounded

  val solve_certified : F.t Lp_problem.t -> certified_result
  (** Minimisation only. *)

  val check_optimal : F.t Lp_problem.t -> certified -> bool
  (** Verify a {!certified} optimum against the original problem:
      primal feasibility, dual feasibility (row-sense signs and
      [Aᵀy ≤ c]) and strong duality. *)
end
