(* Sparse revised simplex with a product-form-of-the-inverse eta file.

   The pivot RULES here deliberately mirror the dense reference tableau
   in lib/lp/tableau.ml line for line: the same standard form and column numbering, the same rhs
   normalisation, the same Dantzig/Bland entering rules, the same
   minimum-ratio leaving rule with ties broken by the smallest basic
   column, the same degenerate-stall accounting, and the same
   artificial drive-out at the phase boundary.  With {!Field.Exact} the
   two engines therefore walk the SAME pivot trajectory and return the
   same vertex — only the per-pivot data structure differs: instead of
   eliminating over a dense (rows × cols) tableau, each iteration does
   one BTRAN (pricing duals through the eta file), one reduced-cost
   sweep over the sparse columns, and one FTRAN (the entering
   direction), all O(nnz)-ish.  The test suite leans on the mirror:
   test/test_revised.ml compares the engines pivot for pivot.

   What the dense reference does not have is the basis lifecycle: a solve
   can start from a structural {!Basis.t} descriptor saved from a
   previous (similar) problem.  The proposed columns are re-factorised
   from scratch; dependent or vanished entries are dropped, missing
   slots filled with unit columns, and columns basic at a negative
   value dropped and re-factored until the point is primal feasible —
   so a stale or corrupted descriptor costs pivots, never correctness.
   A recovered basis with every artificial at zero is a feasibility
   WITNESS (phase 1 is skipped entirely); one with positive artificials
   left is a warm phase-1 start that only has to drive those few out. *)

module Make (F : Field.S) = struct
  module S = Sparse.Make (F)

  type solution = { x : F.t array; objective : F.t; basic : bool array }
  type result = Optimal of solution | Infeasible | Unbounded
  type pricing = Bland | Dantzig
  type feasibility = Feasible of solution | Infeasible_certificate of F.t array

  type certified = { primal : solution; duals : F.t array }

  type certified_result =
    | Certified_optimal of certified
    | Certified_infeasible of F.t array
    | Certified_unbounded

  type row_info = {
    flipped : bool;
    surplus : int option;
    slack : int option;
    art : int option;
  }

  (* One elementary pivot matrix: applying it to a vector divides the
     pivot row by [e_piv] and eliminates the off-row entries. *)
  type eta = { e_row : int; e_piv : F.t; e_off : (int * F.t) array }

  type core = {
    cols : S.t;
        (* CSR of Aᵀ over the FULL standard form (aux and artificial
           columns included): row [j] of [cols] is column [j] of A. *)
    nrows : int;
    nvars : int;
    art_start : int;
    ncols : int;
    b : F.t array;  (* normalised (non-negative) right-hand sides *)
    row_info : row_info array;
    init_basic : int array;  (* row → its natural unit column *)
    aux_owner : int array;  (* aux column → owning row, -1 elsewhere *)
    basis : int array;  (* row → basic column *)
    in_basis : bool array;
    redundant : bool array;
        (* rows whose artificial could not be driven out — the sparse
           twin of the dense engine's row deletion; their direction
           component is identically zero in exact arithmetic, so they
           never block a ratio test *)
    xb : F.t array;  (* row → value of the basic variable *)
    mutable etas : eta array;  (* eta file, oldest first, [0, neta) live *)
    mutable neta : int;
  }

  (* ---- eta file --------------------------------------------------- *)

  let push_eta core e =
    if core.neta = Array.length core.etas then begin
      let cap = Stdlib.max 8 (2 * core.neta) in
      let bigger = Array.make cap e in
      Array.blit core.etas 0 bigger 0 core.neta;
      core.etas <- bigger
    end;
    core.etas.(core.neta) <- e;
    core.neta <- core.neta + 1

  (* FTRAN: v ← B⁻¹ v, applying the etas oldest first. *)
  let ftran core (v : F.t array) =
    for k = 0 to core.neta - 1 do
      let e = core.etas.(k) in
      let t = F.div v.(e.e_row) e.e_piv in
      v.(e.e_row) <- t;
      if F.sign t <> 0 then
        Array.iter (fun (i, dv) -> v.(i) <- F.sub v.(i) (F.mul dv t)) e.e_off
    done

  (* BTRAN: w ← B⁻ᵀ w, applying the etas newest first (transposed). *)
  let btran core (w : F.t array) =
    for k = core.neta - 1 downto 0 do
      let e = core.etas.(k) in
      let acc = ref w.(e.e_row) in
      Array.iter
        (fun (i, dv) ->
          if F.sign w.(i) <> 0 then acc := F.sub !acc (F.mul dv w.(i)))
        e.e_off;
      w.(e.e_row) <- F.div !acc e.e_piv
    done

  (* The entering column's direction d = B⁻¹ A_col. *)
  let direction core col =
    let d = Array.make core.nrows F.zero in
    S.scatter_row core.cols col d;
    ftran core d;
    d

  (* Simplex multipliers for a cost vector: y = B⁻ᵀ c_B, so that the
     reduced cost of column j is c_j − y·A_j — the quantity the dense
     tableau maintains in its cost row. *)
  let btran_costs core (cost : F.t array) =
    let y = Array.init core.nrows (fun r -> cost.(core.basis.(r))) in
    btran core y;
    y

  let reduced_cost core cost (y : F.t array) j =
    F.sub cost.(j) (S.dot_row core.cols j y)

  (* c·x at the current basis (nonbasic variables are zero). *)
  let objective_value core (cost : F.t array) =
    let acc = ref F.zero in
    for r = 0 to core.nrows - 1 do
      let c = cost.(core.basis.(r)) in
      if F.sign c <> 0 then acc := F.add !acc (F.mul c core.xb.(r))
    done;
    !acc

  (* ---- build (the dense engine's standard form, verbatim) ---------- *)

  let build (p : F.t Lp_problem.t) =
    let open Lp_problem in
    let nvars = p.nvars in
    let raw =
      List.map
        (fun c ->
          (* Ensure a non-negative rhs, flipping the relation as needed. *)
          if F.sign c.rhs < 0 then
            ( List.map (fun (v, k) -> (v, F.neg k)) c.terms,
              (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq),
              F.neg c.rhs,
              true )
          else (c.terms, c.rel, c.rhs, false))
        p.constrs
    in
    let nrows = List.length raw in
    let nslack =
      List.fold_left
        (fun acc (_, rel, _, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
        0 raw
    in
    let nart =
      List.fold_left
        (fun acc (_, rel, _, _) -> match rel with Ge | Eq -> acc + 1 | Le -> acc)
        0 raw
    in
    let art_start = nvars + nslack in
    let ncols = art_start + nart in
    let rows = Array.make nrows [] in
    let b = Array.make nrows F.zero in
    let row_info =
      Array.make nrows { flipped = false; surplus = None; slack = None; art = None }
    in
    let init_basic = Array.make nrows (-1) in
    let next_slack = ref nvars and next_art = ref art_start in
    List.iteri
      (fun r (terms, rel, rhs, flipped) ->
        b.(r) <- rhs;
        let aux =
          match rel with
          | Lp_problem.Le ->
              let s = !next_slack in
              incr next_slack;
              init_basic.(r) <- s;
              row_info.(r) <- { flipped; surplus = None; slack = Some s; art = None };
              [ (s, F.one) ]
          | Lp_problem.Ge ->
              let s = !next_slack in
              incr next_slack;
              let a = !next_art in
              incr next_art;
              init_basic.(r) <- a;
              row_info.(r) <- { flipped; surplus = Some s; slack = None; art = Some a };
              [ (s, F.neg F.one); (a, F.one) ]
          | Lp_problem.Eq ->
              let a = !next_art in
              incr next_art;
              init_basic.(r) <- a;
              row_info.(r) <- { flipped; surplus = None; slack = None; art = Some a };
              [ (a, F.one) ]
        in
        rows.(r) <- terms @ aux)
      raw;
    let a = S.of_rows ~nrows ~ncols rows in
    let cols = S.transpose a in
    let aux_owner = Array.make (Stdlib.max 1 ncols) (-1) in
    Array.iteri
      (fun r info ->
        (match info.surplus with Some c -> aux_owner.(c) <- r | None -> ());
        match info.slack with Some c -> aux_owner.(c) <- r | None -> ())
      row_info;
    let in_basis = Array.make (Stdlib.max 1 ncols) false in
    Array.iter (fun c -> in_basis.(c) <- true) init_basic;
    {
      cols;
      nrows;
      nvars;
      art_start;
      ncols;
      b;
      row_info;
      init_basic;
      aux_owner;
      basis = Array.copy init_basic;
      in_basis;
      redundant = Array.make (Stdlib.max 1 nrows) false;
      xb = Array.copy b;
      etas = [||];
      neta = 0;
    }

  let reset_cold core =
    core.neta <- 0;
    Array.blit core.init_basic 0 core.basis 0 core.nrows;
    Array.fill core.in_basis 0 (Array.length core.in_basis) false;
    Array.iter (fun c -> core.in_basis.(c) <- true) core.init_basic;
    Array.fill core.redundant 0 (Array.length core.redundant) false;
    Array.blit core.b 0 core.xb 0 core.nrows

  (* ---- pivoting (rules identical to the dense engine) -------------- *)

  (* Entering rules: Bland picks the smallest eligible index, Dantzig
     the most negative reduced cost with ties to the earlier column
     (strict comparison, like the dense engine).  Basic columns are
     skipped — their reduced cost is exactly zero, so the dense engine
     never selects them either. *)
  let entering pricing core cost (y : F.t array) ~max_col =
    match pricing with
    | Bland ->
        let rec go j =
          if j >= max_col then None
          else if (not core.in_basis.(j)) && F.sign (reduced_cost core cost y j) < 0
          then Some j
          else go (j + 1)
        in
        go 0
    | Dantzig ->
        let best = ref None and bestv = ref F.zero in
        for j = 0 to max_col - 1 do
          if not core.in_basis.(j) then begin
            let v = reduced_cost core cost y j in
            if F.sign v < 0 then
              match !best with
              | None ->
                  best := Some j;
                  bestv := v
              | Some _ ->
                  if F.compare v !bestv < 0 then begin
                    best := Some j;
                    bestv := v
                  end
          end
        done;
        !best

  (* Bland leaving rule: minimum ratio, ties by smallest basic column.
     Redundant rows are skipped — their direction component is zero in
     exact arithmetic anyway (the row is a combination of the others),
     matching the dense engine's row deletion. *)
  let leaving core (d : F.t array) =
    let best = ref None in
    for r = 0 to core.nrows - 1 do
      if (not core.redundant.(r)) && F.sign d.(r) > 0 then begin
        let ratio = F.div core.xb.(r) d.(r) in
        match !best with
        | None -> best := Some (r, ratio)
        | Some (br, bratio) ->
            let c = F.compare ratio bratio in
            if c < 0 || (c = 0 && core.basis.(r) < core.basis.(br)) then
              best := Some (r, ratio)
      end
    done;
    Option.map fst !best

  let pivot core ~row ~col (d : F.t array) =
    let t = F.div core.xb.(row) d.(row) in
    let off = ref [] in
    for i = core.nrows - 1 downto 0 do
      if i <> row && F.sign d.(i) <> 0 then begin
        off := (i, d.(i)) :: !off;
        if F.sign t <> 0 then core.xb.(i) <- F.sub core.xb.(i) (F.mul d.(i) t)
      end
    done;
    push_eta core { e_row = row; e_piv = d.(row); e_off = Array.of_list !off };
    core.xb.(row) <- t;
    core.in_basis.(core.basis.(row)) <- false;
    core.in_basis.(col) <- true;
    core.basis.(row) <- col

  (* The optimisation loop, with the dense engine's degeneracy policy:
     count consecutive zero-progress pivots under Dantzig pricing and
     fall back to Bland's rule permanently past the threshold ([`Bland])
     or raise {!Pivot_budget.Stall} ([`Fail]).  The budget is charged at
     the same point in the iteration as the dense engine charges. *)
  let optimize ?(pricing = Dantzig) ?budget ?(on_stall = `Bland) core cost ~max_col =
    let degenerate_limit = (2 * core.ncols) + 16 in
    let rec go pricing degenerate =
      let y = btran_costs core cost in
      match entering pricing core cost y ~max_col with
      | None -> `Optimal
      | Some col -> (
          let d = direction core col in
          match leaving core d with
          | None -> `Unbounded
          | Some row ->
              let zero_progress = F.sign core.xb.(row) = 0 in
              Pivot_budget.charge budget;
              if zero_progress then
                Hs_obs.Metrics.incr Pivot_budget.Obs.degenerate;
              pivot core ~row ~col d;
              if pricing = Bland then go Bland 0
              else if zero_progress then
                if degenerate + 1 > degenerate_limit then
                  match on_stall with
                  | `Bland -> go Bland 0
                  | `Fail -> raise Pivot_budget.Stall
                else go pricing (degenerate + 1)
              else go pricing 0)
    in
    go pricing 0

  (* Phase 1: minimise the sum of artificial variables.  Returns the
     feasibility verdict and the simplex multipliers at the optimum (the
     Farkas witness when infeasible). *)
  let phase1 ?pricing ?budget ?on_stall core =
    let cost = Array.make (Stdlib.max 1 core.ncols) F.zero in
    for j = core.art_start to core.ncols - 1 do
      cost.(j) <- F.one
    done;
    match optimize ?pricing ?budget ?on_stall core cost ~max_col:core.ncols with
    | `Unbounded ->
        (* The phase-1 objective is bounded below by zero. *)
        assert false
    | `Optimal ->
        let feasible = F.sign (objective_value core cost) = 0 in
        (feasible, btran_costs core cost)

  (* The per-row dual value with the rhs-flip undone — used both for the
     Farkas witness (phase-1 multipliers) and the optimality certificate
     (phase-2 multipliers). *)
  let row_duals core (y : F.t array) =
    Array.mapi
      (fun r info -> if info.flipped then F.neg y.(r) else y.(r))
      core.row_info

  (* Remove artificial variables from the basis, mirroring the dense
     engine's procedure row by row: pivot on the first structural/aux
     column with a nonzero transformed entry, else mark the row
     redundant (the dense engine deletes it).  These exchange pivots are
     free — the dense engine does not charge them either. *)
  let drive_out core =
    for r = 0 to core.nrows - 1 do
      if (not core.redundant.(r)) && core.basis.(r) >= core.art_start then begin
        let beta = Array.make core.nrows F.zero in
        beta.(r) <- F.one;
        btran core beta;
        (* beta·A_j = entry (r, j) of the current tableau *)
        let rec find j =
          if j >= core.art_start then None
          else if F.sign (S.dot_row core.cols j beta) <> 0 then Some j
          else find (j + 1)
        in
        match find 0 with
        | Some col ->
            let d = direction core col in
            pivot core ~row:r ~col d
        | None -> core.redundant.(r) <- true
      end
    done

  let extract core ~objective =
    let x = Array.make core.nvars F.zero in
    let basic = Array.make core.nvars false in
    for r = 0 to core.nrows - 1 do
      let bcol = core.basis.(r) in
      if bcol < core.nvars then begin
        x.(bcol) <- core.xb.(r);
        basic.(bcol) <- true
      end
    done;
    { x; objective; basic }

  (* ---- basis lifecycle -------------------------------------------- *)

  let describe core : Basis.t =
    let acc = ref [] in
    for r = core.nrows - 1 downto 0 do
      let bcol = core.basis.(r) in
      if bcol < core.nvars then acc := Basis.Var bcol :: !acc
      else if bcol < core.art_start then
        acc := Basis.Aux core.aux_owner.(bcol) :: !acc
    done;
    !acc

  (* Re-factorise a proposed column set from scratch: FTRAN each column
     through the partial eta file, pivot it at the unassigned row with
     the largest magnitude (ties to the smallest row), drop columns that
     come out dependent, then complete the remaining rows with their
     natural unit columns.  Because the placed columns are nonsingular
     on their pivot rows, the unit columns of the unassigned rows always
     span the rest — completion cannot fail in exact arithmetic (float
     tolerance can make it fail, in which case the caller goes cold).
     Returns [(success, repaired_slots)]. *)
  let try_basis core cols =
    core.neta <- 0;
    let assigned = Array.make (Stdlib.max 1 core.nrows) false in
    let nbasis = Array.make (Stdlib.max 1 core.nrows) (-1) in
    let placed = ref 0 in
    let place col =
      let d = Array.make core.nrows F.zero in
      S.scatter_row core.cols col d;
      ftran core d;
      let best = ref (-1) and bestm = ref 0.0 in
      for r = 0 to core.nrows - 1 do
        if (not assigned.(r)) && F.sign d.(r) <> 0 then begin
          let m = Float.abs (F.to_float d.(r)) in
          if !best < 0 || m > !bestm then begin
            best := r;
            bestm := m
          end
        end
      done;
      if !best < 0 then false
      else begin
        let r = !best in
        let off = ref [] in
        for i = core.nrows - 1 downto 0 do
          if i <> r && F.sign d.(i) <> 0 then off := (i, d.(i)) :: !off
        done;
        push_eta core { e_row = r; e_piv = d.(r); e_off = Array.of_list !off };
        assigned.(r) <- true;
        nbasis.(r) <- col;
        incr placed;
        true
      end
    in
    List.iter (fun col -> ignore (place col)) cols;
    let repairs = core.nrows - !placed in
    let progress = ref true in
    while !placed < core.nrows && !progress do
      progress := false;
      for r = 0 to core.nrows - 1 do
        if not assigned.(r) then
          if place core.init_basic.(r) then progress := true
      done
    done;
    if !placed < core.nrows then (false, repairs)
    else begin
      Array.blit nbasis 0 core.basis 0 core.nrows;
      Array.fill core.in_basis 0 (Array.length core.in_basis) false;
      Array.iter (fun c -> core.in_basis.(c) <- true) core.basis;
      Array.fill core.redundant 0 (Array.length core.redundant) false;
      Array.blit core.b 0 core.xb 0 core.nrows;
      ftran core core.xb;
      (true, repairs)
    end

  (* What a loaded basis is good for.  [Warm_witness]: x_B ≥ 0 with
     every basic artificial at zero — the basis proves feasibility
     outright and phase 1 is skipped entirely.  [Warm_start]: x_B ≥ 0
     but some artificial sits basic at a positive level (typically the
     rows a replayed event added since the basis was saved) — a legal
     primal-feasible start for phase 1, which then only has to drive
     out those few artificials instead of all of them.  [Warm_cold]:
     no primal-feasible point could be recovered from the proposal even
     after repair, and the solve falls back to the all-artificial cold
     basis. *)
  type warm_status = Warm_witness | Warm_start | Warm_cold

  let warm_classify core =
    let neg = ref false and art = ref false in
    for r = 0 to core.nrows - 1 do
      let s = F.sign core.xb.(r) in
      if s < 0 then neg := true
      else if s <> 0 && core.basis.(r) >= core.art_start then art := true
    done;
    if !neg then Warm_cold else if !art then Warm_start else Warm_witness

  (* Load a proposal, repairing it towards primal feasibility: when the
     factored basis carries negative basic values (the rhs moved under
     it — e.g. a binary-search probe at a different horizon re-scales
     the capacity rows, and B⁻¹b need not stay non-negative), drop the
     proposal columns basic at the negative rows and re-factor, letting
     those rows fall back to their natural unit columns.  Each round
     removes at least one column, and the empty proposal degenerates to
     the cold all-artificial basis with x_B = b̄ ≥ 0, so the loop always
     terminates — usually after one or two rounds, with only the few
     repaired rows left for phase 1 to clean up. *)
  let rec load_repairing core cols ~dropped =
    let ok, unplaced = try_basis core cols in
    if not ok then (Warm_cold, dropped + unplaced)
    else
      match warm_classify core with
      | (Warm_witness | Warm_start) as status -> (status, dropped + unplaced)
      | Warm_cold ->
          let offending = ref [] in
          for r = 0 to core.nrows - 1 do
            if F.sign core.xb.(r) < 0 then offending := core.basis.(r) :: !offending
          done;
          let keep = List.filter (fun c -> not (List.mem c !offending)) cols in
          if List.compare_lengths keep cols = 0 then (Warm_cold, dropped + unplaced)
          else
            load_repairing core keep
              ~dropped:(dropped + List.length cols - List.length keep)

  let try_warm core warm =
    match warm with
    | None | Some [] -> Warm_cold
    | Some proposal ->
        let cols =
          List.filter_map
            (function
              | Basis.Var v -> if v >= 0 && v < core.nvars then Some v else None
              | Basis.Aux i ->
                  if i < 0 || i >= core.nrows then None
                  else (
                    match core.row_info.(i) with
                    | { slack = Some c; _ } -> Some c
                    | { surplus = Some c; _ } -> Some c
                    | _ -> None))
            proposal
          |> List.sort_uniq Int.compare
        in
        if cols = [] then begin
          Hs_obs.Metrics.incr Pivot_budget.Obs.warm_misses;
          Warm_cold
        end
        else begin
          match load_repairing core cols ~dropped:0 with
          | (Warm_witness | Warm_start) as status, repairs ->
              Hs_obs.Metrics.incr Pivot_budget.Obs.warm_hits;
              if repairs > 0 then
                Hs_obs.Metrics.add Pivot_budget.Obs.warm_repairs repairs;
              status
          | Warm_cold, _ ->
              reset_cold core;
              Hs_obs.Metrics.incr Pivot_budget.Obs.warm_misses;
              Warm_cold
        end

  (* Feasibility via the warm proposal when it is an outright witness,
     else phase 1 — run from the warm basis when it was at least a
     valid start, from the cold all-artificial basis otherwise. *)
  let warm_or_phase1 ?pricing ?budget ?on_stall core warm =
    match try_warm core warm with
    | Warm_witness -> true
    | Warm_start | Warm_cold -> fst (phase1 ?pricing ?budget ?on_stall core)

  (* ---- public entry points ----------------------------------------- *)

  let costs_of core (objective : (int * F.t) list) =
    let cost = Array.make (Stdlib.max 1 core.ncols) F.zero in
    List.iter (fun (v, c) -> cost.(v) <- F.add cost.(v) c) objective;
    cost

  let solve ?pricing ?budget ?on_stall ?(maximize = false) ?warm
      (p : F.t Lp_problem.t) =
    let p =
      if maximize then
        {
          p with
          Lp_problem.objective =
            List.map (fun (v, c) -> (v, F.neg c)) p.Lp_problem.objective;
        }
      else p
    in
    let core = build p in
    if not (warm_or_phase1 ?pricing ?budget ?on_stall core warm) then Infeasible
    else begin
      let cost = costs_of core p.Lp_problem.objective in
      drive_out core;
      match optimize ?pricing ?budget ?on_stall core cost ~max_col:core.art_start with
      | `Unbounded -> Unbounded
      | `Optimal ->
          let obj = objective_value core cost in
          let obj = if maximize then F.neg obj else obj in
          Optimal (extract core ~objective:obj)
    end

  let feasible_basis ?pricing ?budget ?on_stall ?warm (p : F.t Lp_problem.t) =
    let p = { p with Lp_problem.objective = [] } in
    let core = build p in
    if not (warm_or_phase1 ?pricing ?budget ?on_stall core warm) then None
    else begin
      drive_out core;
      Some (extract core ~objective:F.zero, describe core)
    end

  let feasible ?pricing ?budget ?on_stall ?warm p =
    Option.map fst (feasible_basis ?pricing ?budget ?on_stall ?warm p)

  let feasible_certified ?pricing ?budget ?on_stall (p : F.t Lp_problem.t) =
    let p = { p with Lp_problem.objective = [] } in
    let core = build p in
    let ok, y = phase1 ?pricing ?budget ?on_stall core in
    if not ok then Infeasible_certificate (row_duals core y)
    else begin
      drive_out core;
      Feasible (extract core ~objective:F.zero)
    end

  let solve_certified (p : F.t Lp_problem.t) =
    let core = build p in
    let ok, y1 = phase1 core in
    if not ok then Certified_infeasible (row_duals core y1)
    else begin
      let cost = costs_of core p.Lp_problem.objective in
      drive_out core;
      match optimize core cost ~max_col:core.art_start with
      | `Unbounded -> Certified_unbounded
      | `Optimal ->
          let y = btran_costs core cost in
          Certified_optimal
            {
              primal = extract core ~objective:(objective_value core cost);
              duals = row_duals core y;
            }
    end
end
