(** Deterministic pivot allowances and the LP telemetry cells, shared by
    the sparse revised engine ({!Revised}) and the dense reference
    tableau ({!Tableau}).  {!Simplex} re-exports the type and exceptions
    under their historical names, so existing callers are unaffected. *)

type t = { mutable pivots_left : int; total : int }

val budget : int -> t
val consumed : t -> int

exception Pivot_limit
(** Raised mid-solve when the supplied budget runs out. *)

exception Stall
(** Raised under [~on_stall:`Fail] when Dantzig pricing exceeds the
    degenerate-pivot threshold. *)

(** Shared metric cells (counters registered once per process). *)
module Obs : sig
  val pivots : Hs_obs.Metrics.counter
  val degenerate : Hs_obs.Metrics.counter
  val solves : Hs_obs.Metrics.counter
  val pivots_per_solve : Hs_obs.Metrics.histogram
  val warm_hits : Hs_obs.Metrics.counter
  val warm_misses : Hs_obs.Metrics.counter
  val warm_repairs : Hs_obs.Metrics.counter
  val presolve_guesses : Hs_obs.Metrics.counter
end

val charge : t option -> unit
(** Spend one pivot from the allowance (raising {!Pivot_limit} on an
    empty one) and bump the shared [simplex.pivots] counter — the single
    decrement site both engines use, preserving the invariant that the
    counter equals the consumed allowance. *)
