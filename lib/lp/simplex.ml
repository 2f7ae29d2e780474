(* The production LP entry points: the sparse revised engine
   ({!Revised}) behind per-solve telemetry, the optional float pre-solve
   hint, and independent checkers for its certificates. *)

(* Budgets, exceptions and metric cells live in {!Pivot_budget};
   re-exported here under their historical names. *)
type budget = Pivot_budget.t = { mutable pivots_left : int; total : int }

let budget = Pivot_budget.budget
let consumed = Pivot_budget.consumed

exception Pivot_limit = Pivot_budget.Pivot_limit

module Obs = Pivot_budget.Obs

module Make (F : Field.S) = struct
  module R = Revised.Make (F)
  module RFloat = Revised.Make (Field.Float)

  type solution = R.solution = { x : F.t array; objective : F.t; basic : bool array }
  type result = R.result = Optimal of solution | Infeasible | Unbounded
  type pricing = R.pricing = Bland | Dantzig

  type feasibility = R.feasibility =
    | Feasible of solution
    | Infeasible_certificate of F.t array

  type certified = R.certified = { primal : solution; duals : F.t array }

  type certified_result = R.certified_result =
    | Certified_optimal of certified
    | Certified_infeasible of F.t array
    | Certified_unbounded

  (* Per-solve telemetry: one span per public solver entry and the
     pivots-per-solve histogram (delta of the shared pivot counter).
     Exception-safe so an exhausted budget still records the partial
     solve. *)
  let instrumented ~what (p : F.t Lp_problem.t) f =
    Hs_obs.Metrics.incr Obs.solves;
    let before = Hs_obs.Metrics.value Obs.pivots in
    let observe () =
      Hs_obs.Metrics.observe Obs.pivots_per_solve (Hs_obs.Metrics.value Obs.pivots - before)
    in
    Hs_obs.Tracer.with_span ~cat:"simplex"
      ~args:
        [
          ("what", Hs_obs.Tracer.Str what);
          ("nvars", Hs_obs.Tracer.Int p.Lp_problem.nvars);
          ("rows", Hs_obs.Tracer.Int (List.length p.Lp_problem.constrs));
        ]
      "simplex.solve"
      (fun () -> Fun.protect ~finally:observe f)

  (* Float pre-solve: guess the optimal basis numerically and promote it
     to the exact field as a warm-start hint.  The guess is re-verified
     by the exact engine's warm loader, so float noise costs pivots,
     never correctness — in particular a float "infeasible" is never
     trusted (we just keep the caller's own hint). *)
  let presolve_hint (p : F.t Lp_problem.t) warm =
    Hs_obs.Metrics.incr Pivot_budget.Obs.presolve_guesses;
    let fp =
      {
        Lp_problem.nvars = p.Lp_problem.nvars;
        objective = [];
        constrs =
          List.map
            (fun (c : F.t Lp_problem.constr) ->
              {
                Lp_problem.cname = c.Lp_problem.cname;
                terms =
                  List.map (fun (v, k) -> (v, F.to_float k)) c.Lp_problem.terms;
                rel = c.Lp_problem.rel;
                rhs = F.to_float c.Lp_problem.rhs;
              })
            p.Lp_problem.constrs;
      }
    in
    match RFloat.feasible_basis ?warm fp with
    | Some (_, basis) -> Some basis
    | None -> warm
    | exception Division_by_zero -> warm

  let solve ?pricing ?budget ?(maximize = false) (p : F.t Lp_problem.t) =
    instrumented ~what:"solve" p @@ fun () ->
    R.solve ?pricing ?budget ~maximize p

  let feasible ?pricing ?budget p =
    match solve ?pricing ?budget { p with Lp_problem.objective = [] } with
    | Optimal s -> Some s
    | Infeasible -> None
    | Unbounded -> assert false

  let feasible_basis ?pricing ?budget ?warm (p : F.t Lp_problem.t) =
    instrumented ~what:"feasible_basis" p @@ fun () ->
    let warm = match warm with Some [] -> None | w -> w in
    let warm =
      if Engine.presolve_enabled () && F.exact then presolve_hint p warm else warm
    in
    R.feasible_basis ?pricing ?budget ?warm p

  let solve_certified (p : F.t Lp_problem.t) =
    instrumented ~what:"solve_certified" p @@ fun () -> R.solve_certified p

  (* Independent verification of an optimality certificate for the
     minimisation problem: the primal point is feasible, the duals are
     feasible for the dual LP (sign conditions per row sense and
     Aᵀy ≤ c), and strong duality holds (cᵀx = bᵀy). *)
  let check_optimal (p : F.t Lp_problem.t) (c : certified) =
    let open Lp_problem in
    let constrs = Array.of_list p.constrs in
    let x = c.primal.x and y = c.duals in
    Array.length y = Array.length constrs
    && Array.length x = p.nvars
    && Array.for_all (fun v -> F.sign v >= 0) x
    (* primal feasibility *)
    && Array.for_all2
         (fun (ct : F.t constr) _ ->
           let lhs =
             List.fold_left (fun acc (v, a) -> F.add acc (F.mul a x.(v))) F.zero ct.terms
           in
           match ct.rel with
           | Le -> F.compare lhs ct.rhs <= 0
           | Ge -> F.compare lhs ct.rhs >= 0
           | Eq -> F.sign (F.sub lhs ct.rhs) = 0)
         constrs y
    (* dual sign conditions *)
    && Array.for_all2
         (fun (ct : F.t constr) yi ->
           match ct.rel with
           | Le -> F.sign yi <= 0
           | Ge -> F.sign yi >= 0
           | Eq -> true)
         constrs y
    &&
    (* dual feasibility Aᵀy ≤ c, and strong duality cᵀx = bᵀy *)
    let col = Array.make p.nvars F.zero in
    let yb = ref F.zero in
    Array.iteri
      (fun i (ct : F.t constr) ->
        List.iter (fun (v, a) -> col.(v) <- F.add col.(v) (F.mul y.(i) a)) ct.terms;
        yb := F.add !yb (F.mul y.(i) ct.rhs))
      constrs;
    let cvec = Array.make p.nvars F.zero in
    List.iter (fun (v, cv) -> cvec.(v) <- F.add cvec.(v) cv) p.objective;
    let dual_feasible =
      Array.for_all2 (fun colv cv -> F.compare colv cv <= 0) col cvec
    in
    let cx =
      Array.to_list (Array.mapi (fun v cv -> F.mul cv x.(v)) cvec)
      |> List.fold_left F.add F.zero
    in
    dual_feasible && F.sign (F.sub cx !yb) = 0 && F.sign (F.sub cx c.primal.objective) = 0

  let feasible_certified ?pricing ?budget p =
    instrumented ~what:"feasible_certified" p @@ fun () ->
    R.feasible_certified ?pricing ?budget p

  (* Independent verification of a Farkas certificate: y respects the
     row-sense sign conditions, prices every variable column
     non-positively, and prices the right-hand side positively — so no
     non-negative x can satisfy the system. *)
  let check_farkas (p : F.t Lp_problem.t) (y : F.t array) =
    let open Lp_problem in
    let constrs = Array.of_list p.constrs in
    Array.length y = Array.length constrs
    && Array.for_all2
         (fun (c : F.t constr) yi ->
           match c.rel with
           | Le -> F.sign yi <= 0
           | Ge -> F.sign yi >= 0
           | Eq -> true)
         constrs y
    &&
    let col = Array.make p.nvars F.zero in
    let rhs = ref F.zero in
    Array.iteri
      (fun i (c : F.t constr) ->
        List.iter (fun (v, a) -> col.(v) <- F.add col.(v) (F.mul y.(i) a)) c.terms;
        rhs := F.add !rhs (F.mul y.(i) c.rhs))
      constrs;
    Array.for_all (fun cv -> F.sign cv <= 0) col && F.sign !rhs > 0
end
