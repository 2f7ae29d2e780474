(** Sparse revised simplex over {!Sparse} CSR matrices with a
    product-form eta file and warm-startable bases — the one production
    LP engine, reached through {!Simplex.Make} (which adds telemetry and
    the float pre-solve hint and re-exports these types).

    Pivot rules (standard form, entering/leaving selection, tie-breaks,
    degeneracy policy, budget charging) deliberately mirror the dense
    reference tableau in {!Tableau}: with {!Field.Exact} both walk the
    same pivot trajectory and return the same vertex, which is what the
    differential suite in [test/test_revised.ml] checks.  The addition
    over the dense reference is the basis lifecycle: {!Make.feasible_basis}
    returns a structural {!Basis.t} descriptor that a later solve on a
    similar problem can pass back as [?warm].  Proposed bases are
    re-factorised and re-verified in the solver's own field — dependent
    or stale entries are repaired, infeasible proposals rejected — so a
    bad hint costs pivots, never correctness. *)

module Make (F : Field.S) : sig
  type solution = { x : F.t array; objective : F.t; basic : bool array }
  type result = Optimal of solution | Infeasible | Unbounded
  type pricing = Bland | Dantzig
  type feasibility = Feasible of solution | Infeasible_certificate of F.t array

  type certified = { primal : solution; duals : F.t array }

  type certified_result =
    | Certified_optimal of certified
    | Certified_infeasible of F.t array
    | Certified_unbounded

  val solve :
    ?pricing:pricing ->
    ?budget:Pivot_budget.t ->
    ?on_stall:[ `Bland | `Fail ] ->
    ?maximize:bool ->
    ?warm:Basis.t ->
    F.t Lp_problem.t ->
    result
  (** Two-phase revised simplex (minimising by default).  An accepted
      [?warm] basis skips phase 1; a rejected one falls back to a cold
      start.  May raise {!Pivot_budget.Pivot_limit} or
      {!Pivot_budget.Stall} exactly as {!Tableau} does. *)

  val feasible :
    ?pricing:pricing ->
    ?budget:Pivot_budget.t ->
    ?on_stall:[ `Bland | `Fail ] ->
    ?warm:Basis.t ->
    F.t Lp_problem.t ->
    solution option

  val feasible_basis :
    ?pricing:pricing ->
    ?budget:Pivot_budget.t ->
    ?on_stall:[ `Bland | `Fail ] ->
    ?warm:Basis.t ->
    F.t Lp_problem.t ->
    (solution * Basis.t) option
  (** Like {!feasible} but also returns the optimal basis as a
      field-independent descriptor for warm-starting later solves. *)

  val feasible_certified :
    ?pricing:pricing ->
    ?budget:Pivot_budget.t ->
    ?on_stall:[ `Bland | `Fail ] ->
    F.t Lp_problem.t ->
    feasibility
  (** Feasibility with a Farkas infeasibility certificate (recovered
      from the phase-1 multipliers). *)

  val solve_certified : F.t Lp_problem.t -> certified_result
  (** Unbudgeted certified solve (minimisation) returning optimal duals
      or a Farkas certificate. *)
end
