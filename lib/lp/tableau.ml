(* Dense two-phase tableau simplex: the reference engine for tests and
   benches (see tableau.mli).

   Conventions:
   - columns [0 .. nvars-1]            original variables
   - columns [nvars .. art_start-1]    slack / surplus variables
   - columns [art_start .. ncols-1]    artificial variables (phase 1 only)
   - each row array has length ncols+1, the last entry being the rhs
   - the cost row has the same length; its last entry holds the negated
     current objective value and is updated by the same pivot operations.

   Pricing: Dantzig's rule (most negative reduced cost) by default, with
   a permanent switch to Bland's rule after a run of degenerate pivots;
   the leaving row always follows Bland's tie-breaking.  Since Bland's
   rule terminates from any basis, the combination terminates even on
   degenerate tableaus while keeping Dantzig's practical pivot counts. *)

module Make (F : Field.S) = struct
  module R = Revised.Make (F)

  type tableau = {
    mutable rows : F.t array array;
    mutable basis : int array;
    ncols : int;
    nvars : int;
    art_start : int;
  }

  let pivot t cost ~row ~col =
    let prow = t.rows.(row) in
    let piv = prow.(col) in
    for j = 0 to t.ncols do
      prow.(j) <- F.div prow.(j) piv
    done;
    let eliminate r =
      if r != prow then begin
        let f = r.(col) in
        if F.sign f <> 0 then
          for j = 0 to t.ncols do
            r.(j) <- F.sub r.(j) (F.mul f prow.(j))
          done
      end
    in
    Array.iter eliminate t.rows;
    eliminate cost;
    t.basis.(row) <- col

  (* Entering rules over the allowed column range: Bland picks the
     smallest eligible index (anti-cycling), Dantzig the most negative
     reduced cost (fewer pivots in practice). *)
  let entering (pricing : R.pricing) cost ~max_col =
    match pricing with
    | Bland ->
        let rec go j =
          if j >= max_col then None
          else if F.sign cost.(j) < 0 then Some j
          else go (j + 1)
        in
        go 0
    | Dantzig ->
        let best = ref None in
        for j = 0 to max_col - 1 do
          if F.sign cost.(j) < 0 then
            match !best with
            | None -> best := Some j
            | Some b -> if F.compare cost.(j) cost.(b) < 0 then best := Some j
        done;
        !best

  (* Bland leaving rule: minimum ratio, ties by smallest basic column. *)
  let leaving t ~col =
    let best = ref None in
    Array.iteri
      (fun r row ->
        if F.sign row.(col) > 0 then begin
          let ratio = F.div row.(t.ncols) row.(col) in
          match !best with
          | None -> best := Some (r, ratio)
          | Some (br, bratio) ->
              let c = F.compare ratio bratio in
              if c < 0 || (c = 0 && t.basis.(r) < t.basis.(br)) then
                best := Some (r, ratio)
        end)
      t.rows;
    Option.map fst !best

  (* Dantzig pricing does not terminate on its own under degeneracy; we
     count consecutive zero-progress (degenerate) pivots and fall back to
     Bland's rule permanently once they exceed a threshold, which
     guarantees termination from any basis.  [budget], if given, is
     decremented once per pivot across every call sharing it;
     {!Pivot_budget.Pivot_limit} is raised when it runs dry. *)
  let optimize ?(pricing = R.Dantzig) ?budget t cost ~max_col =
    let charge () = Pivot_budget.charge budget in
    let degenerate_limit = (2 * t.ncols) + 16 in
    let rec go pricing degenerate =
      match entering pricing cost ~max_col with
      | None -> `Optimal
      | Some col -> (
          match leaving t ~col with
          | None -> `Unbounded
          | Some row ->
              let zero_progress = F.sign t.rows.(row).(t.ncols) = 0 in
              charge ();
              if zero_progress then Hs_obs.Metrics.incr Pivot_budget.Obs.degenerate;
              pivot t cost ~row ~col;
              if pricing = R.Bland then go R.Bland 0
              else if zero_progress then
                if degenerate + 1 > degenerate_limit then go R.Bland 0
                else go pricing (degenerate + 1)
              else go pricing 0)
    in
    go pricing 0

  (* Densify a sparse term list, summing duplicate variable entries. *)
  let densify nvars terms =
    let a = Array.make nvars F.zero in
    List.iter (fun (v, c) -> a.(v) <- F.add a.(v) c) terms;
    a

  let build (p : F.t Lp_problem.t) =
    let open Lp_problem in
    let nvars = p.nvars in
    let raw =
      List.map
        (fun c ->
          let coeffs = densify nvars c.terms in
          (* Ensure a non-negative rhs, flipping the relation as needed. *)
          if F.sign c.rhs < 0 then begin
            Array.iteri (fun i x -> coeffs.(i) <- F.neg x) coeffs;
            let rel = match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq in
            (coeffs, rel, F.neg c.rhs)
          end
          else (coeffs, c.rel, c.rhs))
        p.constrs
    in
    let nrows = List.length raw in
    let nslack =
      List.fold_left
        (fun acc (_, rel, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
        0 raw
    in
    let nart =
      List.fold_left
        (fun acc (_, rel, _) -> match rel with Ge | Eq -> acc + 1 | Le -> acc)
        0 raw
    in
    let art_start = nvars + nslack in
    let ncols = art_start + nart in
    let rows = Array.init nrows (fun _ -> Array.make (ncols + 1) F.zero) in
    let basis = Array.make nrows (-1) in
    let next_slack = ref nvars and next_art = ref art_start in
    List.iteri
      (fun r (coeffs, rel, rhs) ->
        let row = rows.(r) in
        Array.blit coeffs 0 row 0 nvars;
        row.(ncols) <- rhs;
        match rel with
        | Lp_problem.Le ->
            row.(!next_slack) <- F.one;
            basis.(r) <- !next_slack;
            incr next_slack
        | Lp_problem.Ge ->
            row.(!next_slack) <- F.neg F.one;
            incr next_slack;
            row.(!next_art) <- F.one;
            basis.(r) <- !next_art;
            incr next_art
        | Lp_problem.Eq ->
            row.(!next_art) <- F.one;
            basis.(r) <- !next_art;
            incr next_art)
      raw;
    { rows; basis; ncols; nvars; art_start }

  (* Phase 1: minimise the sum of artificial variables; [true] iff the
     optimum is zero, i.e. the problem is feasible. *)
  let phase1 ?pricing ?budget t =
    let cost = Array.make (t.ncols + 1) F.zero in
    for j = t.art_start to t.ncols - 1 do
      cost.(j) <- F.one
    done;
    (* Canonicalise: basic artificial columns must have zero reduced cost. *)
    Array.iteri
      (fun r b ->
        if b >= t.art_start then
          let row = t.rows.(r) in
          for j = 0 to t.ncols do
            cost.(j) <- F.sub cost.(j) row.(j)
          done)
      t.basis;
    match optimize ?pricing ?budget t cost ~max_col:t.ncols with
    | `Unbounded ->
        (* The phase-1 objective is bounded below by zero. *)
        assert false
    | `Optimal ->
        (* Objective value is -cost.(ncols). *)
        F.sign (F.neg cost.(t.ncols)) = 0

  (* Remove artificial variables from the basis; delete redundant rows. *)
  let drive_out_artificials t cost =
    let keep = Array.make (Array.length t.rows) true in
    Array.iteri
      (fun r b ->
        if b >= t.art_start then begin
          let row = t.rows.(r) in
          let rec find j =
            if j >= t.art_start then None
            else if F.sign row.(j) <> 0 then Some j
            else find (j + 1)
          in
          match find 0 with
          | Some col -> pivot t cost ~row:r ~col
          | None -> keep.(r) <- false (* redundant constraint *)
        end)
      t.basis;
    if Array.exists not keep then begin
      let rows = ref [] and basis = ref [] in
      Array.iteri
        (fun r row ->
          if keep.(r) then begin
            rows := row :: !rows;
            basis := t.basis.(r) :: !basis
          end)
        t.rows;
      t.rows <- Array.of_list (List.rev !rows);
      t.basis <- Array.of_list (List.rev !basis)
    end

  let extract t ~objective : R.solution =
    let x = Array.make t.nvars F.zero in
    let basic = Array.make t.nvars false in
    Array.iteri
      (fun r b ->
        if b < t.nvars then begin
          x.(b) <- t.rows.(r).(t.ncols);
          basic.(b) <- true
        end)
      t.basis;
    { x; objective; basic }

  let solve ?pricing ?budget ?(maximize = false) (p : F.t Lp_problem.t) :
      R.result =
    let p =
      if maximize then
        { p with Lp_problem.objective = List.map (fun (v, c) -> (v, F.neg c)) p.Lp_problem.objective }
      else p
    in
    let t = build p in
    if not (phase1 ?pricing ?budget t) then Infeasible
    else begin
      let cost = Array.make (t.ncols + 1) F.zero in
      List.iter
        (fun (v, c) -> cost.(v) <- F.add cost.(v) c)
        p.Lp_problem.objective;
      (* Canonicalise with respect to the phase-1 basis. *)
      drive_out_artificials t cost;
      Array.iteri
        (fun r b ->
          if F.sign cost.(b) <> 0 then begin
            let row = t.rows.(r) in
            let f = cost.(b) in
            for j = 0 to t.ncols do
              cost.(j) <- F.sub cost.(j) (F.mul f row.(j))
            done
          end)
        t.basis;
      match optimize ?pricing ?budget t cost ~max_col:t.art_start with
      | `Unbounded -> Unbounded
      | `Optimal ->
          let obj = F.neg cost.(t.ncols) in
          let obj = if maximize then F.neg obj else obj in
          Optimal (extract t ~objective:obj)
    end
end
