(* Differential suite for the production LP entry point (Simplex, which
   runs the sparse revised engine of lib/lp/revised.ml) against the dense
   reference tableau (lib/lp/tableau.ml), plus warm-start soundness, the
   degenerate/budget pins, the online cold-vs-warm replay, and the
   Hs_check vertex invariant.

   The revised engine deliberately mirrors the dense pivot rules, so
   with exact arithmetic the two must agree not just on feasibility and
   the optimal objective but on the returned vertex and on the number
   of pivots consumed from a shared budget. *)

open Hs_lp
module Q = Hs_numeric.Q
module SQ = Simplex.Make (Field.Exact)
module RQ = Revised.Make (Field.Exact)
module DQ = Tableau.Make (Field.Exact)
module Ilp = Hs_core.Ilp.Make (Field.Exact)
module Oracle = Hs_workloads.Oracle
module Shrink = Hs_workloads.Shrink
module Rng = Hs_workloads.Rng

let q = Q.of_int
let qq = Q.of_ints
let c ?name terms rel rhs = Lp_problem.constr ?name terms rel rhs

let counter name =
  let s = Hs_obs.Metrics.snapshot () in
  Option.value ~default:0 (List.assoc_opt name s.Hs_obs.Metrics.counters)

let result_tag = function
  | SQ.Optimal _ -> "optimal"
  | SQ.Infeasible -> "infeasible"
  | SQ.Unbounded -> "unbounded"

(* Solve with the reference tableau and the production entry point and
   require the full mirror: same result constructor, same exact
   objective, same vertex, and both solutions basic feasible per
   Hs_check.Check.lp_vertex. *)
let differential ?(maximize = false) label p =
  let d = DQ.solve ~maximize p in
  let s = SQ.solve ~maximize p in
  Alcotest.(check string)
    (label ^ ": result kind")
    (result_tag d) (result_tag s);
  match (d, s) with
  | SQ.Optimal ds, SQ.Optimal ss ->
      Alcotest.(check string)
        (label ^ ": objective")
        (Q.to_string ds.objective) (Q.to_string ss.objective);
      Array.iteri
        (fun v dv ->
          Alcotest.(check string)
            (Printf.sprintf "%s: x.(%d)" label v)
            (Q.to_string dv) (Q.to_string ss.x.(v)))
        ds.x;
      Alcotest.(check (array bool))
        (label ^ ": basic flags")
        ds.basic ss.basic;
      List.iter
        (fun (who, (sol : SQ.solution)) ->
          List.iter
            (fun (it : Hs_check.Verdict.item) ->
              if not it.ok then
                Alcotest.failf "%s: %s solution violates %s: %s" label who
                  it.invariant it.detail)
            (Hs_check.Check.lp_vertex p ~x:sol.x ~basic:sol.basic
               ~objective:sol.objective))
        [ ("dense", ds); ("sparse", ss) ]
  | _ -> ()

(* ---- fixtures carried over from test_simplex.ml ---------------------- *)

let fixtures =
  [
    ( "textbook max",
      true,
      Lp_problem.make ~nvars:2
        ~objective:[ (0, q 3); (1, q 5) ]
        [
          c [ (0, q 1) ] Le (q 4);
          c [ (1, q 2) ] Le (q 12);
          c [ (0, q 3); (1, q 2) ] Le (q 18);
        ] );
    ( "min with >=",
      false,
      Lp_problem.make ~nvars:2
        ~objective:[ (0, q 2); (1, q 3) ]
        [ c [ (0, q 1); (1, q 1) ] Ge (q 4); c [ (0, q 1) ] Ge (q 1) ] );
    ( "infeasible pair",
      false,
      Lp_problem.make ~nvars:2
        [ c [ (0, q 1); (1, q 1) ] Le (q 1); c [ (0, q 1); (1, q 1) ] Ge (q 3) ]
    );
    ( "unbounded ray",
      true,
      Lp_problem.make ~nvars:1 ~objective:[ (0, q 1) ] [ c [ (0, q 1) ] Ge (q 1) ]
    );
    ( "fractional vertex",
      true,
      Lp_problem.make ~nvars:2 ~objective:[ (0, q 1) ]
        [
          c [ (0, q 1); (1, q 1) ] Eq (q 1);
          c [ (0, q 2); (1, q 1) ] Le (qq 3 2);
        ] );
    ( "negative rhs",
      false,
      Lp_problem.make ~nvars:1 ~objective:[ (0, q 1) ]
        [ c [ (0, q (-1)) ] Le (q (-2)); c [ (0, q 1) ] Le (q 5) ] );
    ( "redundant equalities",
      false,
      Lp_problem.make ~nvars:2
        ~objective:[ (0, q 1); (1, q 1) ]
        [
          c [ (0, q 1); (1, q 1) ] Eq (q 2);
          c [ (0, q 2); (1, q 2) ] Eq (q 4);
          c [ (0, q 1) ] Le (q 2);
        ] );
    ( "duplicate terms",
      true,
      Lp_problem.make ~nvars:1 ~objective:[ (0, q 1) ]
        [ c [ (0, q 1); (0, q 1) ] Le (q 4) ] );
    ( "degenerate (Beale)",
      false,
      Lp_problem.make ~nvars:4
        ~objective:[ (0, qq (-3) 4); (1, q 150); (2, qq (-1) 50); (3, q 6) ]
        [
          c [ (0, qq 1 4); (1, q (-60)); (2, qq (-1) 25); (3, q 9) ] Le (q 0);
          c [ (0, qq 1 2); (1, q (-90)); (2, qq (-1) 50); (3, q 3) ] Le (q 0);
          c [ (2, q 1) ] Le (q 1);
        ] );
    ( "zero-variable row",
      false,
      Lp_problem.make ~nvars:1 [ c [] Le (q 3) ] );
  ]

let test_fixture_mirror () =
  List.iter (fun (label, maximize, p) -> differential ~maximize label p) fixtures

(* ---- 200+ seeded instances ------------------------------------------- *)

(* Deterministic mixed Le/Ge/Eq systems, feasible at a known point by
   construction except when the seed injects a contradictory pair.
   Minimising the all-ones objective over x ≥ 0 is always bounded. *)
let seeded_lp seed =
  let rng = Rng.create (0xD1F0 + seed) in
  let nvars = 1 + Rng.int rng 6 in
  let nrows = 1 + Rng.int rng 6 in
  let x0 = Array.init nvars (fun _ -> Rng.int rng 11) in
  let row () = Array.init nvars (fun _ -> Rng.int_range rng (-4) 6) in
  let dot r = Array.fold_left ( + ) 0 (Array.mapi (fun i a -> a * x0.(i)) r) in
  let terms r = Array.to_list (Array.mapi (fun i a -> (i, q a)) r) in
  let constrs =
    List.init nrows (fun _ ->
        let r = row () in
        match Rng.int rng 4 with
        | 0 -> c (terms r) Eq (q (dot r))
        | 1 -> c (terms r) Ge (q (dot r - Rng.int rng 5))
        | _ -> c (terms r) Le (q (dot r + Rng.int rng 6)))
  in
  let constrs =
    if seed mod 7 = 0 then
      (* contradictory pair: sum x <= 7 and sum x >= 8 + gap *)
      let all = List.init nvars (fun i -> (i, q 1)) in
      c all Le (q 7) :: c all Ge (q (8 + Rng.int rng 20)) :: constrs
    else constrs
  in
  Lp_problem.make ~nvars
    ~objective:(List.init nvars (fun i -> (i, q 1)))
    constrs

let test_seeded_mirror () =
  for seed = 0 to 209 do
    differential (Printf.sprintf "seed %d" seed) (seeded_lp seed)
  done

(* ---- warm-start soundness -------------------------------------------- *)

let feasible_seed seed = seeded_lp ((seed * 7) + 1) (* avoid the seed mod 7 = 0 injection *)

let test_warm_same_objective () =
  for seed = 0 to 24 do
    let p = feasible_seed seed in
    match RQ.solve p with
    | RQ.Optimal cold -> (
        let basis =
          match RQ.feasible_basis p with
          | Some (_, b) -> b
          | None -> Alcotest.failf "seed %d: optimal but not feasible?" seed
        in
        match RQ.solve ~warm:basis p with
        | RQ.Optimal warm ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d: warm objective" seed)
              (Q.to_string cold.objective)
              (Q.to_string warm.objective)
        | _ -> Alcotest.failf "seed %d: warm solve lost feasibility" seed)
    | _ -> ()
  done

let test_corrupt_basis_repaired () =
  let p = feasible_seed 3 in
  let cold =
    match RQ.solve p with
    | RQ.Optimal s -> s
    | _ -> Alcotest.fail "expected optimal"
  in
  (* Garbage proposals: out-of-range variables, duplicates, auxiliaries
     of rows that do not exist, and a basis stolen from an unrelated
     problem.  All must be repaired or rejected — never trusted. *)
  let corrupt_proposals =
    [
      [ Basis.Var 0; Basis.Var 0; Basis.Var 9999; Basis.Aux 999; Basis.Aux (-1) ];
      List.init 40 (fun i -> Basis.Var i);
      (match RQ.feasible_basis (feasible_seed 11) with
      | Some (_, b) -> b
      | None -> []);
    ]
  in
  List.iteri
    (fun k proposal ->
      Hs_obs.Metrics.reset ();
      match RQ.solve ~warm:proposal p with
      | RQ.Optimal s ->
          Alcotest.(check string)
            (Printf.sprintf "corrupt %d: objective unchanged" k)
            (Q.to_string cold.objective)
            (Q.to_string s.objective);
          let hits = counter "lp.warm_start.hits" in
          let misses = counter "lp.warm_start.misses" in
          (* Out-of-range entries are dropped at translation, so a
             sanitised prefix may still load cleanly (a hit); what the
             metrics must never do is skip the accounting. *)
          Alcotest.(check bool)
            (Printf.sprintf "corrupt %d: warm attempt recorded" k)
            true
            (hits > 0 || misses > 0 || proposal = [])
      | _ -> Alcotest.failf "corrupt %d: lost feasibility" k)
    corrupt_proposals

let test_warm_store_round_trip () =
  let inst = Oracle.instance_of_seed ~max_m:4 ~max_n:8 5 in
  let store = Ilp.warm_store () in
  match Ilp.t_bounds inst with
  | None -> Alcotest.fail "oracle instance has no bounds"
  | Some (_, hi) ->
      let first = Ilp.lp_feasible_x ~warm:store inst ~tmax:hi in
      Alcotest.(check bool) "first probe feasible" true (first <> None);
      Alcotest.(check bool) "store populated" true (Ilp.warm_saved store > 0);
      Hs_obs.Metrics.reset ();
      let second = Ilp.lp_feasible_x ~warm:store inst ~tmax:hi in
      Alcotest.(check bool) "second probe feasible" true (second <> None);
      Alcotest.(check int) "identical re-solve is a pure hit" 1
        (counter "lp.warm_start.hits");
      Alcotest.(check int) "identical re-solve needs no pivots" 0
        (counter "simplex.pivots")

(* Warm-started binary search returns the same T* as cold; a failing
   seed is shrunk to a minimal instance before reporting. *)
let test_warm_search_same_horizon () =
  let disagrees inst =
    let cold = Option.map fst (Ilp.min_feasible_t inst) in
    let warm =
      Option.map fst (Ilp.min_feasible_t_x ~warm:(Ilp.warm_store ()) inst)
    in
    cold <> warm
  in
  for seed = 0 to 14 do
    let inst = Oracle.instance_of_seed ~max_m:4 ~max_n:7 seed in
    if disagrees inst then begin
      let minimal = Shrink.minimize ~still_failing:disagrees inst in
      let jobs, sets, vol = Shrink.measure minimal in
      Alcotest.failf
        "seed %d: warm binary search diverges; minimal counterexample has \
         %d jobs / %d sets / volume %d"
        seed jobs sets vol
    end
  done

(* ---- degenerate pins and budget parity -------------------------------- *)

let beale = List.assoc "degenerate (Beale)" (List.map (fun (l, _, p) -> (l, p)) fixtures)

let fully_degenerate =
  (* Every rhs zero: the only feasible point is the origin and every
     pivot is degenerate. *)
  Lp_problem.make ~nvars:3
    ~objective:[ (0, q (-1)); (1, q (-1)); (2, q (-1)) ]
    [
      c [ (0, q 1); (1, q (-1)) ] Le (q 0);
      c [ (1, q 1); (2, q (-1)) ] Le (q 0);
      c [ (2, q 1); (0, q (-1)) ] Le (q 0);
      c [ (0, q 1); (1, q 1); (2, q 1) ] Eq (q 0);
    ]

let solve_metered solve =
  Hs_obs.Metrics.reset ();
  let r = solve () in
  (r, counter "simplex.pivots", counter "simplex.degenerate_pivots")

let test_degenerate_pins () =
  List.iter
    (fun (label, p, expected) ->
      let rd, pd, dd = solve_metered (fun () -> DQ.solve p) in
      let rs, ps, ds = solve_metered (fun () -> SQ.solve p) in
      (match (rd, rs) with
      | SQ.Optimal a, SQ.Optimal b ->
          Alcotest.(check string) (label ^ ": dense objective") expected
            (Q.to_string a.objective);
          Alcotest.(check string) (label ^ ": sparse objective") expected
            (Q.to_string b.objective)
      | _ -> Alcotest.failf "%s: expected optimal under both engines" label);
      Alcotest.(check int) (label ^ ": pivot parity") pd ps;
      Alcotest.(check int) (label ^ ": degenerate-pivot parity") dd ds)
    [
      ("Beale", beale, "-1/20");
      ("fully degenerate", fully_degenerate, "0");
    ]

let test_bland_fallback_agrees () =
  (* Forcing Bland from the start must still reach the same optimum as
     the Dantzig-with-fallback default, under both engines. *)
  let agrees engine bland dantzig =
    match (bland, dantzig) with
    | SQ.Optimal a, SQ.Optimal b ->
        Alcotest.(check string)
          (engine ^ ": Bland = Dantzig objective")
          (Q.to_string b.objective) (Q.to_string a.objective)
    | _ -> Alcotest.fail "expected optimal"
  in
  agrees "dense" (DQ.solve ~pricing:SQ.Bland beale) (DQ.solve beale);
  agrees "sparse" (SQ.solve ~pricing:SQ.Bland beale) (SQ.solve beale)

let test_pivot_limit_parity () =
  (* Both engines must consume pivots identically: the same total on an
     unmetered run, and Pivot_limit at the same point when metered. *)
  let p = seeded_lp 42 in
  let dense budget = DQ.solve ~budget p and sparse budget = SQ.solve ~budget p in
  let consumed solve =
    let b = Simplex.budget 100_000 in
    ignore (solve b);
    Simplex.consumed b
  in
  let full = consumed dense in
  Alcotest.(check int) "unmetered consumption identical" full (consumed sparse);
  Alcotest.(check bool) "fixture pivots at least once" true (full > 0);
  let limited solve k =
    let b = Simplex.budget k in
    match solve b with
    | exception Simplex.Pivot_limit -> (true, Simplex.consumed b)
    | _ -> (false, Simplex.consumed b)
  in
  for k = 1 to Stdlib.min 6 (full - 1) do
    let rd = limited dense k and rs = limited sparse k in
    Alcotest.(check (pair bool int))
      (Printf.sprintf "budget %d: same exhaustion point" k)
      rd rs;
    Alcotest.(check bool)
      (Printf.sprintf "budget %d: limit raised" k)
      true (fst rd)
  done

(* ---- online replay: warm starts change pivot counts, never schedules -- *)

(* One seeded growth trace (the bench's family, shortened) replayed cold
   and warm-started: the rendered event tables must be identical, the
   cold replay must never consult the basis store, and the warm one must
   hit it and spend strictly fewer pivots. *)
let test_online_warm_below_cold () =
  let module Replay = Hs_online.Replay in
  let tr =
    Hs_workloads.Generators.trace ~seed:1301
      ~lam:(Hs_laminar.Topology.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2)
      ~events:16 ~base:(1, 9) ~heterogeneity:1.3 ~overhead:0.2 ~departures:0.0
      ~max_live:12 ()
  in
  let replay run =
    Hs_obs.Metrics.reset ();
    match run tr with
    | Error e -> Alcotest.failf "growth replay failed: %s" e
    | Ok (o : Replay.outcome) ->
        let buf = Buffer.create 1024 in
        Replay.render_table buf o.steps;
        (Buffer.contents buf, counter "simplex.pivots", counter "lp.warm_start.hits")
  in
  let cold_table, cold_pivots, cold_hits = replay (Replay.run ~warm_start:false) in
  let warm_table, warm_pivots, warm_hits = replay (fun tr -> Replay.run tr) in
  Alcotest.(check string) "event tables identical" cold_table warm_table;
  Alcotest.(check int) "cold replay never hits the store" 0 cold_hits;
  Alcotest.(check bool) "warm replay records hits" true (warm_hits > 0);
  if warm_pivots >= cold_pivots then
    Alcotest.failf "warm replay used %d pivots, cold %d: warm must be strictly below"
      warm_pivots cold_pivots

(* ---- the Hs_check vertex invariant blames corruption ------------------ *)

let test_lp_vertex_blames () =
  let p = List.nth fixtures 0 |> fun (_, _, p) -> p in
  let s =
    match SQ.solve ~maximize:true p with
    | SQ.Optimal s -> s
    | _ -> Alcotest.fail "expected optimal"
  in
  let failed ~x ~basic ~objective =
    List.filter_map
      (fun (it : Hs_check.Verdict.item) ->
        if it.ok then None else Some it.invariant)
      (Hs_check.Check.lp_vertex p ~x ~basic ~objective)
  in
  Alcotest.(check (list string))
    "honest solution passes" []
    (failed ~x:s.x ~basic:s.basic ~objective:s.objective);
  (* A nonbasic variable pushed off its bound. *)
  let basic' = Array.copy s.basic in
  let v =
    match Array.to_list (Array.mapi (fun i b -> (i, b)) s.basic)
          |> List.find_opt (fun (i, b) -> b && Q.sign s.x.(i) <> 0)
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "no basic variable at a nonzero level"
  in
  basic'.(v) <- false;
  Alcotest.(check bool) "unflagged basic variable blamed" true
    (List.mem "lp.vertex.nonbasic-at-bound"
       (failed ~x:s.x ~basic:basic' ~objective:s.objective));
  (* A lying objective. *)
  Alcotest.(check bool) "wrong objective blamed" true
    (List.mem "lp.vertex.objective"
       (failed ~x:s.x ~basic:s.basic ~objective:(Q.add s.objective Q.one)));
  (* An infeasible point. *)
  let x' = Array.copy s.x in
  x'.(0) <- q 1000;
  Alcotest.(check bool) "violated constraint blamed" true
    (List.mem "lp.vertex.feasible"
       (failed ~x:x' ~basic:s.basic ~objective:s.objective));
  (* Shape mismatch. *)
  Alcotest.(check bool) "truncated arrays blamed" true
    (List.mem "lp.vertex.shape"
       (failed ~x:[| q 0 |] ~basic:s.basic ~objective:s.objective));
  (* Everything basic: support bound must trip (3 rows, both vars basic
     plus padding flags keeps support <= rows here, so widen instead:
     claim every variable basic on a 1-row problem). *)
  let tiny = Lp_problem.make ~nvars:3 [ c [ (0, q 1); (1, q 1); (2, q 1) ] Le (q 9) ] in
  let items =
    Hs_check.Check.lp_vertex tiny ~x:[| q 1; q 1; q 1 |]
      ~basic:[| true; true; true |] ~objective:Q.zero
  in
  Alcotest.(check bool) "oversized support blamed" true
    (List.exists
       (fun (it : Hs_check.Verdict.item) ->
         it.invariant = "lp.vertex.support" && not it.ok)
       items)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  ( "revised",
    [
      u "fixture mirror (dense = sparse)" test_fixture_mirror;
      u "210 seeded instances mirror" test_seeded_mirror;
      u "warm solve = cold objective" test_warm_same_objective;
      u "corrupted bases repaired, never trusted" test_corrupt_basis_repaired;
      u "warm store round trip (0-pivot re-solve)" test_warm_store_round_trip;
      u "warm binary search = cold T* (shrinking)" test_warm_search_same_horizon;
      u "degenerate pins (pivot parity)" test_degenerate_pins;
      u "Bland fallback agrees" test_bland_fallback_agrees;
      u "Pivot_limit parity" test_pivot_limit_parity;
      u "online replay: warm < cold pivots, same table" test_online_warm_below_cold;
      u "lp_vertex blames corruption" test_lp_vertex_blames;
    ] )
