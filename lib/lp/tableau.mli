(** Dense two-phase tableau simplex — the reference engine.

    Production solves go through {!Simplex} (the sparse revised engine,
    {!Revised}).  This module keeps the original dense tableau only as a
    reference for the differential tests and for the dense column of
    [bench lp]: it runs the same pivot rules over the same standard
    form (Dantzig pricing with a permanent Bland fallback after a run of
    degenerate pivots, minimum-ratio leaving row with ties broken by the
    smallest basic column), so with {!Field.Exact} it walks the same
    pivot trajectory as {!Revised} and returns the same vertex.

    It is deliberately uninstrumented beyond what {!Pivot_budget}
    records on every pivot ([simplex.pivots], [simplex.degenerate_pivots])
    and takes no warm-start hints. *)

module Make (F : Field.S) : sig
  val solve :
    ?pricing:Revised.Make(F).pricing ->
    ?budget:Pivot_budget.t ->
    ?on_stall:[ `Bland | `Fail ] ->
    ?maximize:bool ->
    F.t Lp_problem.t ->
    Revised.Make(F).result
  (** Minimises the objective by default.  [budget] meters pivots
      (raising {!Pivot_budget.Pivot_limit} when exhausted); [on_stall]
      selects the degeneracy response (default [`Bland], the silent rule
      switch; [`Fail] raises {!Pivot_budget.Stall}). *)
end
