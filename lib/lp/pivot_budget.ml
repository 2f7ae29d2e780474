(* Shared pivot metering and LP telemetry cells; see pivot_budget.mli. *)

type t = { mutable pivots_left : int; total : int }

let budget n = { pivots_left = n; total = n }
let consumed b = b.total - b.pivots_left

exception Pivot_limit

(* Telemetry (Hs_obs): metric cells are registered once here, outside
   every functor, so the exact and float instantiations of both engines
   share them. *)
module Obs = struct
  module M = Hs_obs.Metrics

  let pivots = M.counter "simplex.pivots"
  let degenerate = M.counter "simplex.degenerate_pivots"
  let solves = M.counter "simplex.solves"

  let pivots_per_solve =
    M.histogram ~buckets:[ 10; 30; 100; 300; 1_000; 10_000 ] "simplex.pivots_per_solve"

  (* Warm-start accounting of the revised engine: [hits] counts proposed
     bases accepted after exact re-verification (phase 1 skipped),
     [misses] proposals rejected (fell back to a cold phase 1), and
     [repairs] basis slots that had to be rebuilt — dropped dependent or
     out-of-range columns plus unit-column completions. *)
  let warm_hits = M.counter "lp.warm_start.hits"
  let warm_misses = M.counter "lp.warm_start.misses"
  let warm_repairs = M.counter "lp.warm_start.repairs"

  (* Float pre-solve runs feeding basis guesses to the exact engine. *)
  let presolve_guesses = M.counter "lp.presolve.guesses"
end

(* Charge one pivot: the metrics counter and the budget meter decrement
   at the same site, so `simplex.pivots` always equals the consumed
   allowance.  Both engines pivot through this function. *)
let charge budget =
  (match budget with
  | None -> ()
  | Some b ->
      if b.pivots_left <= 0 then raise Pivot_limit
      else b.pivots_left <- b.pivots_left - 1);
  Hs_obs.Metrics.incr Obs.pivots
