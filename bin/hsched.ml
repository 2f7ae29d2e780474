(* hsched — command-line front end for the hierarchical scheduling library.

   Sub-commands:
     solve       run the Theorem V.2 pipeline on a file or generated instance
     exact       branch-and-bound optimum (small instances)
     generate    emit an instance file from the workload generators
     experiment  run one of the DESIGN.md evaluation experiments (T1..F5)
     sweep       batch-solve instance files on a worker-domain pool
     simulate    replay the solved schedule under migration latencies *)

open Cmdliner
open Hs_model
module L = Hs_laminar.Laminar
module T = Hs_laminar.Topology

(* ---------- shared argument bundles ---------------------------------- *)

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Instance file (see Instance_io format).")

let topology_arg =
  Arg.(
    value
    & opt (enum [ ("semi", `Semi); ("clustered", `Clustered); ("smp-cmp", `Smp); ("random", `Random); ("singletons", `Singletons) ]) `Semi
    & info [ "topology" ] ~docv:"KIND" ~doc:"Generated machine family: semi, clustered, smp-cmp, random, singletons.")

let m_arg = Arg.(value & opt int 4 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Machine count.")
let n_arg = Arg.(value & opt int 8 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Job count.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic workload seed.")

let overhead_arg =
  Arg.(value & opt float 0.2 & info [ "overhead" ] ~docv:"F" ~doc:"Per-level migration overhead fraction.")

let het_arg =
  Arg.(value & opt float 1.5 & info [ "heterogeneity" ] ~docv:"F" ~doc:"Per-machine speed spread (>= 1).")

let build_topology kind ~m =
  match kind with
  | `Semi -> T.semi_partitioned m
  | `Clustered ->
      let clusters = if m mod 2 = 0 then 2 else 1 in
      T.clustered ~m ~clusters
  | `Smp ->
      (* nearest 2 x 2 x c decomposition *)
      let c = Stdlib.max 1 (m / 4) in
      T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:c
  | `Random -> Hs_workloads.Generators.random_laminar (Hs_workloads.Rng.create 7) ~m ()
  | `Singletons -> T.singletons m

let load_or_generate file topology m n seed overhead het =
  match file with
  | Some path -> Instance_io.load path
  | None ->
      let rng = Hs_workloads.Rng.create seed in
      let lam = build_topology topology ~m in
      Ok
        (Hs_workloads.Generators.hierarchical rng ~lam ~n ~base:(1, 9)
           ~heterogeneity:het ~overhead ())

(* ---------- observability --------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the solve to FILE (loadable in \
           chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the solver metrics (counters, gauges, histograms) to stderr.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Write the solver metrics registry as JSON to FILE.")

(* ---------- LP options ------------------------------------------------ *)

let lp_presolve_arg =
  Arg.(
    value & flag
    & info [ "lp-presolve" ]
        ~doc:
          "Guess the optimal basis with a floating-point pre-solve and promote it to \
           exact arithmetic only for certification. Every guess is re-verified \
           exactly, so verdicts and bounds are unaffected.")

(* Evaluated by cmdliner before any run function body, so the switch is
   pinned for the whole process including at_exit stat dumps. *)
let setup_lp_term = Term.(const Hs_lp.Engine.set_presolve $ lp_presolve_arg)

(* The writers run from [at_exit] so that a run cut short by budget
   exhaustion (exit 4) still flushes a well-formed, merely truncated,
   trace and its metrics. *)
let setup_obs trace stats stats_json =
  if trace <> None then begin
    Hs_obs.Tracer.set_clock (fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9));
    Hs_obs.Tracer.enable ()
  end;
  if trace <> None || stats || stats_json <> None then
    at_exit (fun () ->
        (match trace with
        | Some path -> (
            match Hs_obs.Tracer.write_chrome path with
            | Ok () -> ()
            | Error e -> prerr_endline ("hsched: cannot write trace: " ^ e))
        | None -> ());
        let snap = Hs_obs.Metrics.snapshot () in
        (match stats_json with
        | Some path -> (
            let doc = Hs_obs.Json.to_string (Hs_obs.Metrics.to_json snap) in
            try
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc doc)
            with Sys_error e -> prerr_endline ("hsched: cannot write stats: " ^ e))
        | None -> ());
        if stats then Format.eprintf "%a@?" Hs_obs.Metrics.pp_summary snap)

(* Exit-code contract (documented in README.md): 0 success, 1 internal
   failure, 2 unusable input, 3 infeasible instance, 4 budget
   exhausted. *)
let exit_with code msg =
  prerr_endline ("hsched: " ^ msg);
  exit code

let exit_err msg = exit_with 1 msg
let exit_usage msg = exit_with 2 msg

let exit_typed e =
  exit_with (Hs_core.Hs_error.exit_code e) (Hs_core.Hs_error.to_string e)

(* ---------- solve ----------------------------------------------------- *)

(* The report bodies live in Hs_service.Render: the daemon answers a
   solve request with the exact bytes these commands print, and
   test/service.t pins the identity. *)
let print_outcome ~show_schedule (o : Hs_core.Approx.Exact.outcome) =
  print_string (Hs_service.Render.exact_outcome o);
  if show_schedule then Format.printf "%a@." Schedule.pp o.schedule

let print_robust ~show_schedule ~(budget : Hs_core.Budget.t)
    (r : Hs_core.Approx.robust_outcome) =
  print_string (Hs_service.Render.robust_outcome ~budget r);
  if show_schedule then Format.printf "%a@." Schedule.pp r.r_schedule

(* --check: re-verify the produced artifact with the independent
   certificate checker (lib/check).  Strictly additive: without the flag
   every byte of output is unchanged. *)
let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Re-verify the result with the independent certificate checker: paper \
           invariants (IP-2/IP-3, Lemmas IV.1/IV.2/V.1, Prop. III.2), Section II \
           schedule validity, and the Theorem V.2 bound against a recomputed LP lower \
           bound. A violated invariant exits with code 1.")

let print_verdict v = print_string (Hs_check.Verdict.to_string v)

let enforce_verdict v =
  print_verdict v;
  match Hs_check.Verdict.to_error v with Some e -> exit_typed e | None -> ()

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"K"
        ~doc:
          "Deterministic resource budget: K simplex pivots and K branch-and-bound nodes. \
           With a budget, the exact solver is tried first and the pipeline degrades to \
           the certified LP-rounding 2-approximation when the budget runs out.")

let on_exhausted_arg =
  Arg.(
    value
    & opt (enum [ ("fail", `Fail); ("fallback", `Fallback) ]) `Fallback
    & info [ "on-budget-exhausted" ] ~docv:"MODE"
        ~doc:
          "What to do when a budget runs out: 'fallback' (default) degrades to the next \
           solver path, 'fail' exits with code 4.")

let solve_cmd =
  let show_schedule =
    Arg.(value & flag & info [ "print-schedule" ] ~doc:"Print every execution segment.")
  in
  let show_gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of the schedule.")
  in
  let use_float =
    Arg.(value & flag & info [ "float-lp" ] ~doc:"Use the floating-point LP (faster, uncertified).")
  in
  let run () file topology m n seed overhead het show_schedule show_gantt use_float budget
      on_exhausted check trace stats stats_json =
    setup_obs trace stats stats_json;
    if check && use_float then
      exit_usage "--check certifies the exact pipeline; drop --float-lp";
    match load_or_generate file topology m n seed overhead het with
    | Error e -> exit_usage e
    | Ok inst -> (
        match budget with
        | Some k -> (
            (* Resilient path: budgets, graceful degradation, typed
               errors with distinct exit codes. *)
            let budget = Hs_core.Budget.of_units k in
            match Hs_core.Approx.solve_robust ~budget ~on_exhausted inst with
            | Error e -> exit_typed e
            | Ok r ->
                print_robust ~show_schedule ~budget r;
                if show_gantt then Gantt.print r.r_schedule;
                if check then enforce_verdict (Hs_check.Certify.robust r))
        | None -> (
            if use_float then
              match Hs_core.Approx.Fast.solve inst with
              | Error e -> exit_err e
              | Ok o ->
                  Printf.printf "(float LP path)\n";
                  Printf.printf "LP lower bound T* = %d\nachieved makespan = %d\n" o.t_lp o.makespan
            else
              match Hs_core.Approx.Exact.solve_checked inst with
              | Error e -> exit_typed e
              | Ok o ->
                  print_outcome ~show_schedule o;
                  if show_gantt then Gantt.print o.schedule;
                  if check then enforce_verdict (Hs_check.Certify.outcome o)))
  in
  Cmd.v (Cmd.info "solve" ~doc:"Run the 2-approximation pipeline (Theorem V.2).")
    Term.(const run $ setup_lp_term $ file_arg $ topology_arg $ m_arg $ n_arg $ seed_arg $ overhead_arg $ het_arg $ show_schedule $ show_gantt $ use_float $ budget_arg $ on_exhausted_arg $ check_arg $ trace_arg $ stats_arg $ stats_json_arg)

(* ---------- exact ------------------------------------------------------ *)

let exact_cmd =
  let limit =
    Arg.(value & opt int 20_000_000 & info [ "node-limit" ] ~docv:"K" ~doc:"Branch-and-bound node budget.")
  in
  let run () file topology m n seed overhead het limit on_exhausted trace stats stats_json =
    setup_obs trace stats stats_json;
    match load_or_generate file topology m n seed overhead het with
    | Error e -> exit_usage e
    | Ok inst -> (
        match Hs_core.Exact.optimal ~node_limit:limit inst with
        | None ->
            exit_typed
              (Hs_core.Hs_error.Infeasible
                 { reason = "some job has no admissible mask"; certified = false })
        | Some (_, _, stats) when (not stats.proven) && on_exhausted = `Fail ->
            exit_typed
              (Hs_core.Hs_error.Budget_exhausted
                 {
                   stage = Hs_core.Hs_error.Bb;
                   detail =
                     Printf.sprintf "node budget ran out (used %d of %d nodes)"
                       (Stdlib.min stats.nodes limit) limit;
                 })
        | Some (a, span, stats) ->
            Printf.printf "optimal makespan = %d%s (nodes=%d pruned=%d)\n" span
              (if stats.proven then "" else " (NOT proven: node limit hit)")
              stats.nodes stats.pruned;
            Array.iteri (fun j s -> Printf.printf "  job %d -> set #%d\n" j s) a)
  in
  Cmd.v (Cmd.info "exact" ~doc:"Compute the optimal makespan by branch and bound.")
    Term.(const run $ setup_lp_term $ file_arg $ topology_arg $ m_arg $ n_arg $ seed_arg $ overhead_arg $ het_arg $ limit $ on_exhausted_arg $ trace_arg $ stats_arg $ stats_json_arg)

(* ---------- generate --------------------------------------------------- *)

let generate_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run topology m n seed overhead het out =
    match load_or_generate None topology m n seed overhead het with
    | Error e -> exit_err e
    | Ok inst -> (
        match out with
        | None -> print_string (Instance_io.to_string inst)
        | Some path -> (
            match Instance_io.save path inst with
            | Ok () -> Printf.printf "wrote %s\n" path
            | Error e -> exit_usage ("cannot write instance: " ^ e)))
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic instance file.")
    Term.(const run $ topology_arg $ m_arg $ n_arg $ seed_arg $ overhead_arg $ het_arg $ out)

(* ---------- experiment -------------------------------------------------- *)

(* Worker-domain count for the sweep subcommands.  [solve]/[exact] keep
   "--jobs" as the job (task) count of a generated instance; here it
   means parallelism, matching `dune -j` and `make -j`. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default 1 = sequential, 0 = all cores). Results \
           are byte-identical at any value; see DESIGN.md section 10.")

let resolve_jobs_or_exit jobs =
  match Hs_exec.resolve_jobs jobs with
  | j -> j
  | exception Invalid_argument m -> exit_usage m

let experiment_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"T1..T6, F1..F5, or 'all'.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps.") in
  let run () exp_name quick jobs trace stats stats_json =
    setup_obs trace stats stats_json;
    let jobs = resolve_jobs_or_exit jobs in
    Hs_experiments.Experiments.by_name exp_name ~quick ~jobs ()
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the evaluation tables/figures from DESIGN.md.")
    Term.(const run $ setup_lp_term $ exp_name $ quick $ jobs_arg $ trace_arg $ stats_arg $ stats_json_arg)

(* ---------- sweep ------------------------------------------------------- *)

let sweep_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Instance files (Instance_io format) to solve in batch.")
  in
  let run () files jobs budget on_exhausted check trace stats stats_json =
    setup_obs trace stats stats_json;
    let jobs = resolve_jobs_or_exit jobs in
    (* Each file is one deterministic work item; [parmap] returns the
       outcomes in argument order, so the report (and the exit code:
       that of the first failing file) is independent of [jobs]. *)
    let certify verdict report =
      match Hs_check.Verdict.to_error verdict with
      | Some e -> Error e
      | None ->
          Ok
            (Printf.sprintf "%s\ncertified: %d invariants re-verified" report
               (List.length (Hs_check.Verdict.items verdict)))
    in
    let solve_one path =
      match Instance_io.load path with
      | Error e -> Error (Hs_core.Hs_error.Parse_error e)
      | Ok inst -> (
          match budget with
          | Some k -> (
              let budget = Hs_core.Budget.of_units k in
              match Hs_core.Approx.solve_robust ~budget ~on_exhausted inst with
              | Error e -> Error e
              | Ok r ->
                  let report =
                    Printf.sprintf "lower bound = %d\nachieved makespan = %d  (path: %s)"
                      r.r_lower_bound r.r_makespan
                      (Hs_core.Approx.provenance_to_string r.r_provenance)
                  in
                  if check then certify (Hs_check.Certify.robust r) report
                  else Ok report)
          | None -> (
              match Hs_core.Approx.Exact.solve_checked inst with
              | Error e -> Error e
              | Ok o ->
                  let report =
                    Printf.sprintf
                      "LP lower bound T* = %d\nachieved makespan = %d  (guarantee: <= %d)"
                      o.t_lp o.makespan (2 * o.t_lp)
                  in
                  if check then certify (Hs_check.Certify.outcome o) report
                  else Ok report))
    in
    let outcomes = Hs_exec.parmap ~jobs solve_one files in
    let first_err = ref None in
    List.iter2
      (fun path outcome ->
        Printf.printf "== %s ==\n" path;
        match outcome with
        | Ok report -> print_endline report
        | Error e ->
            Printf.printf "ERROR: %s\n" (Hs_core.Hs_error.to_string e);
            if !first_err = None then first_err := Some e)
      files outcomes;
    match !first_err with
    | None -> ()
    | Some e -> exit (Hs_core.Hs_error.exit_code e)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Batch-solve instance files on a worker-domain pool. Output order and exit code \
          match a sequential run at any --jobs.")
    Term.(const run $ setup_lp_term $ files_arg $ jobs_arg $ budget_arg $ on_exhausted_arg $ check_arg $ trace_arg $ stats_arg $ stats_json_arg)

(* ---------- check ------------------------------------------------------- *)

let check_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Instance files (Instance_io format) to certify.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit each certificate as a JSON object.")
  in
  let assignment_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "assignment" ] ~docv:"CSV"
          ~doc:
            "Check this externally produced assignment (comma-separated set ids, one \
             per job) against each FILE instead of running the pipeline. Requires \
             $(b,--tmax).")
  in
  let tmax_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tmax" ] ~docv:"T" ~doc:"Horizon for $(b,--assignment) certification.")
  in
  let no_lp_arg =
    Arg.(
      value & flag
      & info [ "no-lp" ]
          ~doc:
            "Skip the LP lower-bound recomputation (the exact-simplex re-derivation of \
             T* and the Farkas check at T*-1); the remaining invariants still run.")
  in
  let run () files json assignment tmax budget jobs no_lp trace stats stats_json =
    setup_obs trace stats stats_json;
    let jobs = resolve_jobs_or_exit jobs in
    let lp = not no_lp in
    let artifact =
      match (assignment, tmax) with
      | None, _ -> `Pipeline
      | Some csv, Some tmax -> (
          let cells = String.split_on_char ',' (String.trim csv) in
          match List.map int_of_string_opt cells with
          | ids when List.for_all Option.is_some ids ->
              `Assignment (Array.of_list (List.map Option.get ids), tmax)
          | _ -> exit_usage ("invalid --assignment: " ^ csv))
      | Some _, None -> exit_usage "--assignment requires --tmax"
    in
    (* One deterministic work item per file, as in sweep: report order
       and exit code are independent of --jobs. *)
    let check_one path =
      match Instance_io.load path with
      | Error e -> Error (Hs_core.Hs_error.Parse_error e)
      | Ok inst -> (
          match artifact with
          | `Assignment (a, tmax) ->
              if Array.length a <> Instance.njobs inst then
                Error
                  (Hs_core.Hs_error.Invalid_instance
                     (Printf.sprintf "--assignment lists %d jobs, %s has %d"
                        (Array.length a) path (Instance.njobs inst)))
              else Ok (Hs_check.Certify.assignment inst a ~tmax)
          | `Pipeline -> (
              match budget with
              | None -> (
                  match Hs_core.Approx.Exact.solve_checked inst with
                  | Error e -> Error e
                  | Ok o -> Ok (Hs_check.Certify.outcome ~lp o))
              | Some k -> (
                  let budget = Hs_core.Budget.of_units k in
                  match
                    Hs_core.Approx.solve_robust ~budget ~on_exhausted:`Fallback inst
                  with
                  | Error e -> Error e
                  | Ok r -> Ok (Hs_check.Certify.robust ~lp r))))
    in
    let outcomes = Hs_exec.parmap ~jobs check_one files in
    let headers = List.length files > 1 in
    let first_err = ref None in
    List.iter2
      (fun path outcome ->
        if headers then Printf.printf "== %s ==\n" path;
        match outcome with
        | Error e ->
            Printf.printf "ERROR: %s\n" (Hs_core.Hs_error.to_string e);
            if !first_err = None then first_err := Some e
        | Ok verdict ->
            if json then
              print_endline (Hs_obs.Json.to_string (Hs_check.Verdict.to_json verdict))
            else print_verdict verdict;
            if !first_err = None then first_err := Hs_check.Verdict.to_error verdict)
      files outcomes;
    match !first_err with
    | None -> ()
    | Some e -> exit (Hs_core.Hs_error.exit_code e)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Independently certify solver artifacts: solve each FILE and re-verify every \
          paper invariant (laminarity, monotonicity, IP-2, Section II schedule \
          validity, the recomputed LP lower bound and the Theorem V.2 factor-2 bound), \
          or certify an externally produced --assignment at a given --tmax. Exit 0 \
          only when every certificate passes.")
    Term.(const run $ setup_lp_term $ files_arg $ json_arg $ assignment_arg $ tmax_arg $ budget_arg $ jobs_arg $ no_lp_arg $ trace_arg $ stats_arg $ stats_json_arg)

(* ---------- service: serve / request / shutdown -------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the solver daemon.")

let serve_cmd =
  let cache_arg =
    Arg.(value & opt int 128 & info [ "cache" ] ~docv:"K" ~doc:"LRU result-cache capacity (entries).")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "max-batch" ] ~docv:"B"
          ~doc:"Maximum solve requests admitted per domain-pool batch.")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the server log on stderr.") in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"Q"
          ~doc:
            "Admission bound: solve requests beyond Q queued are shed with the typed \
             overloaded response (status 5) and a deterministic retry_after_ms hint. 0 \
             sheds every solve.")
  in
  let retry_hint_arg =
    Arg.(
      value & opt int 50
      & info [ "retry-hint-ms" ] ~docv:"MS"
          ~doc:"Slope of the deterministic retry_after_ms ladder on shed requests.")
  in
  let deadline_units_arg =
    Arg.(
      value
      & opt int Hs_service.Solver.default_deadline_units_per_ms
      & info [ "deadline-units" ] ~docv:"U"
          ~doc:
            "Deadline-to-budget exchange rate: a request deadline of D ms caps its \
             solver budget at D*U units, deterministically.")
  in
  let io_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "io-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection IO deadline: clients sitting on a partial frame (or not \
             reading their responses) this long are cut off.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Cache snapshot file: restored on startup (each entry must re-prove its \
             fingerprint; tampered entries are rejected) and written back after the \
             drain on shutdown.")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Fault-injection mode (tests only): a solve whose budget is the reserved \
             chaos sentinel crashes its worker domain, exercising the typed \
             worker-crash answer path.")
  in
  let recorder_arg =
    Arg.(
      value & opt int 256
      & info [ "recorder" ] ~docv:"N"
          ~doc:
            "Flight-recorder capacity: the last N request outcomes (status, queue \
             wait, solve time, shed reason) are kept for $(b,hsched stats --recent) \
             and dumped to the log on drain.")
  in
  let sessions_arg =
    Arg.(
      value & opt int 16
      & info [ "max-sessions" ] ~docv:"S"
          ~doc:
            "Bound on concurrently open online-scheduling sessions; an $(b,online \
             open) beyond it is shed with the typed overloaded response (status 5).")
  in
  let run () socket jobs cache batch queue retry_hint deadline_units io_timeout snapshot
      chaos recorder sessions budget check quiet trace stats stats_json =
    setup_obs trace stats stats_json;
    let jobs = resolve_jobs_or_exit jobs in
    if cache < 1 then exit_usage "cache capacity must be >= 1";
    if batch < 1 then exit_usage "max-batch must be >= 1";
    if queue < 0 then exit_usage "max-queue must be >= 0";
    if retry_hint < 1 then exit_usage "retry-hint-ms must be >= 1";
    if deadline_units < 1 then exit_usage "deadline-units must be >= 1";
    if io_timeout <= 0.0 then exit_usage "io-timeout must be > 0";
    if recorder < 1 then exit_usage "recorder capacity must be >= 1";
    if sessions < 1 then exit_usage "max-sessions must be >= 1";
    if chaos then Hs_service.Engine.install_chaos_sentinel ();
    let log = if quiet then ignore else fun m -> prerr_endline ("hsched-serve: " ^ m) in
    let cfg =
      {
        Hs_service.Daemon.socket_path = socket;
        jobs;
        cache_capacity = cache;
        default_budget = budget;
        max_batch = batch;
        max_queue = queue;
        retry_hint_ms = retry_hint;
        deadline_units_per_ms = deadline_units;
        io_timeout_s = io_timeout;
        snapshot_path = snapshot;
        verify = check;
        recorder_capacity = recorder;
        max_sessions = sessions;
        log;
      }
    in
    match Hs_service.Daemon.run cfg with Ok () -> () | Error e -> exit_usage e
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent solver daemon: a Unix-domain socket speaking the framed \
          JSON protocol of DESIGN.md section 11, with request batching, bounded \
          admission (overload shedding), per-request deadlines, a canonical-hash \
          result cache and optional crash-recovery snapshots.")
    Term.(
      const run $ setup_lp_term $ socket_arg $ jobs_arg $ cache_arg $ batch_arg $ queue_arg
      $ retry_hint_arg $ deadline_units_arg $ io_timeout_arg $ snapshot_arg $ chaos_arg
      $ recorder_arg $ sessions_arg $ budget_arg $ check_arg $ quiet_arg $ trace_arg
      $ stats_arg $ stats_json_arg)

let request_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Instance files (Instance_io format) to solve through the daemon.")
  in
  let stats_q_arg =
    Arg.(value & flag & info [ "server-stats" ] ~doc:"Query the daemon's service counters.")
  in
  let ping_arg = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check.") in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:
            "Append a shutdown request after the solves; the daemon answers every \
             pipelined solve before acknowledging (graceful drain).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a solve shed by the daemon (status 5: overloaded) up to N times, \
             backing off exponentially with deterministic jitter and honouring the \
             daemon's retry_after_ms hint. Retried solves are sent sequentially, not \
             pipelined.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: expires in the daemon's admission queue (status 6) \
             and deterministically caps the solver budget at the daemon's \
             deadline-units exchange rate.")
  in
  let req_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Trace the request end to end: mint a deterministic trace id (digest of \
             the instance texts), carry it on every solve, absorb the server-side \
             spans from the responses and write one merged Chrome trace_event \
             timeline — client connect/send/await next to the daemon's queue-wait, \
             batch, solve and render spans — to FILE.")
  in
  let run socket budget retries deadline_ms files stats_q ping shutdown trace =
    if retries < 0 then exit_usage "retries must be >= 0";
    (match deadline_ms with
    | Some d when d < 0 -> exit_usage "deadline-ms must be >= 0"
    | _ -> ());
    setup_obs trace false None;
    let read_file path =
      match In_channel.with_open_text path In_channel.input_all with
      | text -> text
      | exception Sys_error e -> exit_usage e
    in
    let file_texts = List.map (fun path -> (path, read_file path)) files in
    (* The trace id is deterministic — the digest of what is being asked
       — so a re-run of the same request joins the same trace. *)
    let trace_id =
      match trace with
      | None -> None
      | Some _ ->
          Some
            (Digest.to_hex
               (Digest.string (String.concat "\x00" (List.map snd file_texts))))
    in
    Hs_obs.Tracer.set_trace_id trace_id;
    let reqs =
      List.map
        (fun (path, instance_text) ->
          ( `File path,
            Hs_service.Protocol.Solve { instance_text; budget; deadline_ms; trace_id }
          ))
        file_texts
      @ (if ping then [ (`Other, Hs_service.Protocol.Ping) ] else [])
      @ (if stats_q then [ (`Other, Hs_service.Protocol.Stats) ] else [])
      @ if shutdown then [ (`Other, Hs_service.Protocol.Shutdown) ] else []
    in
    if reqs = [] then exit_usage "nothing to request: give instance FILEs or a flag";
    (* A single solve prints its body alone, byte-identical to the
       offline `hsched solve`; anything else gets per-file headers in
       request order (the sweep subcommand's format). *)
    let headers = List.length reqs > 1 in
    match Hs_service.Client.connect socket with
    | Error e -> exit_typed (Hs_core.Hs_error.Unavailable e)
    | Ok client -> (
        let result =
          if retries = 0 then Hs_service.Client.call_many client (List.map snd reqs)
          else
            (* Sequential so each shed answer's backoff hint is honoured
               before the next attempt hits the admission queue. *)
            let rec each acc = function
              | [] -> Ok (List.rev acc)
              | (_, req) :: rest -> (
                  match Hs_service.Client.call_with_retry ~retries client req with
                  | Error _ as e -> e
                  | Ok r -> each (r :: acc) rest)
            in
            each [] reqs
        in
        Hs_service.Client.close client;
        match result with
        | Error e -> exit_err e
        | Ok resps ->
            (* Stitch the server side in: decode the spans each traced
               response carried back and absorb them into this process's
               sink as remote (the Chrome exporter gives them their own
               process track).  One batch serves many requests, so the
               same span can ride back on several responses — dedup on
               the wire form.  A span that fails to decode degrades the
               trace, never the request. *)
            (if trace <> None then begin
               let seen = Hashtbl.create 64 in
               List.iter
                 (fun (r : Hs_service.Protocol.response) ->
                   r.spans
                   |> List.filter (fun j ->
                          let s = Hs_obs.Json.to_string j in
                          if Hashtbl.mem seen s then false
                          else begin
                            Hashtbl.add seen s ();
                            true
                          end)
                   |> List.filter_map (fun j ->
                          Result.to_option (Hs_obs.Tracer.span_of_json j))
                   |> Hs_obs.Tracer.absorb_remote)
                 resps
             end);
            let first_err = ref 0 in
            List.iter2
              (fun (label, _) (r : Hs_service.Protocol.response) ->
                (match label with
                | `File path when headers -> Printf.printf "== %s ==\n" path
                | _ -> ());
                if r.status = 0 then begin
                  print_string r.body;
                  if r.body = "" || r.body.[String.length r.body - 1] <> '\n' then
                    print_newline ()
                end
                else begin
                  Printf.printf "ERROR: %s\n" r.error;
                  if !first_err = 0 then first_err := r.status
                end)
              reqs resps;
            if !first_err <> 0 then exit !first_err)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Solve instance files through a running daemon. All requests are pipelined on \
          one connection, so they land in the daemon's admission queue as a batch; \
          output order and exit code match the offline sweep. With --retries, shed \
          requests are retried with deterministic backoff. With --trace, the \
          server-side spans ride back on the responses and the run writes one merged \
          client/server Chrome trace.")
    Term.(
      const run $ socket_arg $ budget_arg $ retries_arg $ deadline_arg $ files_arg
      $ stats_q_arg $ ping_arg $ shutdown_arg $ req_trace_arg)

(* ---------- stats: live daemon introspection --------------------------- *)

(* Smallest bucket bound covering quantile [q] of a histogram snapshot —
   the honest "p99 <= X ms" a fixed-bucket histogram can give. *)
let hist_quantile (h : Hs_obs.Metrics.hist_snapshot) q =
  let target =
    Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.observations)))
  in
  let rec go i cum = function
    | [] -> Printf.sprintf ">%d" (List.fold_left Stdlib.max 0 h.buckets)
    | b :: rest ->
        let cum = cum + h.counts.(i) in
        if cum >= target then string_of_int b else go (i + 1) cum rest
  in
  go 0 0 h.buckets

let print_stats_prom doc =
  let module J = Hs_obs.Json in
  match J.member "metrics" doc with
  | None -> exit_err "introspection body has no \"metrics\""
  | Some m -> (
      match Hs_obs.Metrics.of_json m with
      | Error e -> exit_err ("undecodable metrics: " ^ e)
      | Ok snap ->
          print_string (Hs_obs.Metrics.to_prometheus snap);
          (* Loop-local state that has no registry cell: uptime and the
             instantaneous (not high-water) queue depth. *)
          (match J.member "uptime_s" doc with
          | Some (J.Float u) ->
              Printf.printf "# TYPE hsched_uptime_seconds gauge\nhsched_uptime_seconds %g\n" u
          | Some (J.Int u) ->
              Printf.printf "# TYPE hsched_uptime_seconds gauge\nhsched_uptime_seconds %d\n" u
          | _ -> ());
          match J.member "queue_depth" doc with
          | Some (J.Int q) ->
              Printf.printf "# TYPE hsched_queue_now gauge\nhsched_queue_now %d\n" q
          | _ -> ())

let print_stats_text ~recent doc =
  let module J = Hs_obs.Json in
  let int k = match J.member k doc with Some (J.Int i) -> i | _ -> 0 in
  let bool_ k = match J.member k doc with Some (J.Bool b) -> b | _ -> false in
  let uptime =
    match J.member "uptime_s" doc with
    | Some (J.Float u) -> u
    | Some (J.Int u) -> float_of_int u
    | _ -> 0.0
  in
  match J.member "metrics" doc with
  | None -> exit_err "introspection body has no \"metrics\""
  | Some m -> (
      match Hs_obs.Metrics.of_json m with
      | Error e -> exit_err ("undecodable metrics: " ^ e)
      | Ok snap ->
          let c name = Option.value ~default:0 (Hs_obs.Metrics.find_counter snap name) in
          let g name = Option.value ~default:0 (Hs_obs.Metrics.find_gauge snap name) in
          Printf.printf "uptime: %.1fs\n" uptime;
          Printf.printf "queue depth: %d (high water %d)\n" (int "queue_depth")
            (g "service.queue.depth");
          Printf.printf "connections: %d\n" (int "connections");
          Printf.printf "draining: %b\n" (bool_ "draining");
          Printf.printf "cache entries: %d\n" (int "cache_entries");
          Printf.printf "requests: %d (shed %d, deadline missed %d)\n"
            (c "service.requests") (c "service.shed") (c "service.deadline_miss");
          let hits = c "service.cache.hit" and misses = c "service.cache.miss" in
          Printf.printf "cache: %d hit(s) / %d miss(es)%s\n" hits misses
            (if hits + misses = 0 then ""
             else
               Printf.sprintf " (hit ratio %.1f%%)"
                 (100.0 *. float_of_int hits /. float_of_int (hits + misses)));
          Printf.printf "frames: %d in / %d out (%d / %d bytes)\n" (c "frame.decoded")
            (c "frame.encoded") (c "frame.bytes.in") (c "frame.bytes.out");
          print_endline "phase latency (ms):";
          List.iter
            (fun (label, name) ->
              match Hs_obs.Metrics.find_histogram snap name with
              | Some h when h.Hs_obs.Metrics.observations > 0 ->
                  Printf.printf "  %-6s n=%d p50<=%s p99<=%s\n" label
                    h.Hs_obs.Metrics.observations (hist_quantile h 0.5)
                    (hist_quantile h 0.99)
              | _ -> Printf.printf "  %-6s n=0\n" label)
            [
              ("queue", "service.phase.queue_ms");
              ("solve", "service.phase.solve_ms");
              ("render", "service.phase.render_ms");
              ("write", "service.phase.write_ms");
            ];
          (match J.member "recorder" doc with
          | Some r ->
              let ri k = match J.member k r with Some (J.Int i) -> i | _ -> 0 in
              Printf.printf
                "flight recorder: %d outcome(s) recorded, last %d held (capacity %d)\n"
                (ri "recorded")
                (Stdlib.min (ri "recorded") (ri "capacity"))
                (ri "capacity")
          | None -> ());
          if recent then
            match J.member "recent" doc with
            | Some (J.List entries) ->
                print_endline "recent outcomes (oldest first):";
                List.iter
                  (fun j ->
                    match Hs_service.Recorder.entry_of_json j with
                    | Ok e -> print_endline ("  " ^ Hs_service.Recorder.entry_to_line e)
                    | Error _ -> ())
                  entries
            | _ -> ())

let stats_cmd =
  let socket_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path of the solver daemon.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw hsched.introspect/1 JSON document.")
  in
  let prom_arg =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Print the metrics in Prometheus text exposition format (hsched_ \
             namespace, cumulative histogram buckets).")
  in
  let recent_arg =
    Arg.(
      value & flag
      & info [ "recent" ]
          ~doc:
            "Include the flight recorder: the last N request outcomes (status, queue \
             wait, solve time, shed reason, retry hint), oldest first.")
  in
  let run socket json prom recent =
    if json && prom then exit_usage "--json and --prom are mutually exclusive";
    match Hs_service.Client.connect ~retries:0 socket with
    | Error e -> exit_typed (Hs_core.Hs_error.Unavailable e)
    | Ok client -> (
        let result =
          Hs_service.Client.call client (Hs_service.Protocol.Introspect { recent })
        in
        Hs_service.Client.close client;
        match result with
        | Error e -> exit_err e
        | Ok r when r.status <> 0 -> exit_with r.status ("stats failed: " ^ r.error)
        | Ok r ->
            if json then print_endline r.body
            else (
              match Hs_obs.Json.parse r.body with
              | Error e -> exit_err ("undecodable introspection body: " ^ e)
              | Ok doc ->
                  if prom then print_stats_prom doc else print_stats_text ~recent doc))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Live daemon introspection, answered out of band (never through the \
          admission queue, so it works during overload): uptime, queue depth, \
          shed/deadline counters, cache hit ratio and per-phase latency histograms, \
          as text, --json, or --prom; --recent adds the flight recorder.")
    Term.(const run $ socket_pos $ json_arg $ prom_arg $ recent_arg)

let shutdown_cmd =
  let run socket =
    match Hs_service.Client.connect ~retries:0 socket with
    | Error e -> exit_typed (Hs_core.Hs_error.Unavailable e)
    | Ok client -> (
        let result = Hs_service.Client.call client Hs_service.Protocol.Shutdown in
        Hs_service.Client.close client;
        match result with
        | Error e -> exit_err e
        | Ok r ->
            if r.status = 0 then print_endline "server shut down"
            else exit_with r.status ("shutdown failed: " ^ r.error))
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Gracefully stop a running daemon: drain in-flight work, then exit.")
    Term.(const run $ socket_arg)

(* ---------- realtime ------------------------------------------------------ *)

let realtime_cmd =
  let tasks_arg =
    Arg.(
      value
      & opt (list ~sep:',' (pair ~sep:':' int int)) [ (10, 6); (20, 9); (10, 5); (40, 8) ]
      & info [ "tasks" ] ~docv:"P:C,P:C,.."
          ~doc:"Periodic tasks as period:wcet pairs (base WCET on a single core).")
  in
  let run topology m seed overhead tasks =
    ignore seed;
    let lam = build_topology topology ~m in
    let taskset =
      Array.of_list
        (List.mapi
           (fun i (period, base) ->
             Hs_realtime.Task.of_base ~lam ~name:(Printf.sprintf "t%d" i) ~period ~base
               ~overhead ())
           tasks)
    in
    Printf.printf "slice D = %d, hyperperiod = %d, total min utilization = %s / %d cores\n"
      (Hs_realtime.Task.slice_length taskset)
      (Hs_realtime.Task.hyperperiod taskset)
      (Hs_numeric.Q.to_string (Hs_realtime.Task.total_min_utilization taskset))
      (L.m lam);
    match Hs_realtime.Dpfair.analyze lam taskset with
    | Hs_realtime.Dpfair.Schedulable s ->
        Printf.printf "SCHEDULABLE with template of length %d:\n" s.slice;
        Array.iteri
          (fun j set ->
            Printf.printf "  %-4s -> {%s}\n" taskset.(j).Hs_realtime.Task.name
              (String.concat ","
                 (List.map string_of_int (Array.to_list (L.members lam set)))))
          s.assignment;
        Gantt.print s.template
    | Hs_realtime.Dpfair.Infeasible why -> Printf.printf "INFEASIBLE: %s\n" why
    | Hs_realtime.Dpfair.Unknown why -> Printf.printf "UNKNOWN: %s\n" why
  in
  Cmd.v
    (Cmd.info "realtime"
       ~doc:"DP-Fair style schedulability analysis of periodic tasks with affinities.")
    Term.(const run $ topology_arg $ m_arg $ seed_arg $ overhead_arg $ tasks_arg)

(* ---------- topology ----------------------------------------------------- *)

let topology_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT instead of text.") in
  let run topology m dot =
    let lam = build_topology topology ~m in
    if dot then print_string (L.to_dot lam) else Format.printf "%a@." L.pp lam
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Show a machine family (text or GraphViz DOT).")
    Term.(const run $ topology_arg $ m_arg $ dot)

(* ---------- simulate ----------------------------------------------------- *)

let simulate_cmd =
  let latencies =
    Arg.(
      value
      & opt (list int) [ 0; 1; 2; 4 ]
      & info [ "latencies" ] ~docv:"L0,L1,.."
          ~doc:"Migration latency per LCA height (clamped at the last entry).")
  in
  let run file topology m n seed overhead het latencies =
    match load_or_generate file topology m n seed overhead het with
    | Error e -> exit_err e
    | Ok inst -> (
        match Hs_core.Approx.Exact.solve inst with
        | Error e -> exit_err e
        | Ok o ->
            let lam = Instance.laminar o.instance in
            let latency =
              Hs_sim.Simulator.latency_of_levels lam (Array.of_list latencies)
            in
            let r = Hs_sim.Simulator.run ~lam o.schedule ~latency in
            Printf.printf "model makespan    = %d\n" r.model_makespan;
            Printf.printf "realised makespan = %d\n" r.realised_makespan;
            Printf.printf "total stall       = %d\n" r.total_stall;
            List.iter
              (fun (h, c) -> Printf.printf "migrations at LCA height %d: %d\n" h c)
              r.migrations_by_level)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Replay the solved schedule under explicit migration latencies.")
    Term.(const run $ file_arg $ topology_arg $ m_arg $ n_arg $ seed_arg $ overhead_arg $ het_arg $ latencies)

(* ---------- online -------------------------------------------------------- *)

module Replay = Hs_online.Replay
module Trace_io = Hs_online.Trace_io

let online_cmd =
  let trace_pos =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Trace file (Trace_io format). When omitted, a trace is generated from \
             $(b,--seed)/$(b,--events)/$(b,--topology) and friends.")
  in
  let events_arg =
    Arg.(value & opt int 40 & info [ "events" ] ~docv:"E" ~doc:"Generated trace length.")
  in
  let departures_arg =
    Arg.(
      value & opt float 0.3
      & info [ "departures" ] ~docv:"F"
          ~doc:"Probability a generated event departs a live job.")
  in
  let drains_arg =
    Arg.(
      value & opt int 0
      & info [ "drains" ] ~docv:"D"
          ~doc:"Distinct machines drained at evenly spaced positions of the generated trace.")
  in
  let max_live_arg =
    Arg.(
      value & opt int 8
      & info [ "max-live" ] ~docv:"K"
          ~doc:"Cap on concurrently live jobs in the generated trace (0 = unlimited).")
  in
  let beta_arg =
    Arg.(
      value & opt string "inf"
      & info [ "migration-budget" ] ~docv:"BETA"
          ~doc:
            "Migration budget coefficient: the cumulative voluntarily migrated volume \
             stays within BETA times the arrived volume (exact rationals). An integer, \
             fraction (\"1/2\"), decimal (\"0.5\"), or \"inf\" (unlimited, the \
             clairvoyant comparator).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the (loaded or generated) trace to FILE.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Certify every intermediate schedule with the independent checker: \
             Theorem IV.3 makespan tightness, the fresh LP lower bound, \
             migration-budget accounting and the conditional factor-2 envelope. Any \
             violated invariant exits with code 1.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the hsched.online/1 JSON document instead of the table.")
  in
  let latencies_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "latencies" ] ~docv:"L0,L1,.."
          ~doc:
            "Charge each migration a stall from this per-level table (the height of \
             the smallest family set spanning the move, clamped at the last entry) \
             and report totals — the latency model of $(b,hsched simulate).")
  in
  let socket_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Stream the replay through a running daemon instead of replaying locally: \
             open an online session, send one event per request, close for the \
             summary. Output is identical to the local replay.")
  in
  let report ~json ~beta ~latencies (outcome : Replay.outcome) =
    if json then
      print_endline (Hs_obs.Json.to_string (Replay.outcome_to_json outcome))
    else begin
      let buf = Buffer.create 1024 in
      Replay.render_table buf outcome.Replay.steps;
      Buffer.add_char buf '\n';
      Replay.render_summary buf ?beta outcome.Replay.summary;
      (match latencies with
      | None -> ()
      | Some table ->
          let levels =
            List.concat_map (fun (s : Replay.step) -> s.Replay.move_levels)
              outcome.Replay.steps
          in
          let table = Array.of_list table in
          Buffer.add_string buf
            (Printf.sprintf "migration stall %d over %d move(s)\n"
               (Hs_sim.Simulator.stall_of_levels ~table levels)
               (List.length levels));
          List.iter
            (fun (h, c) ->
              Buffer.add_string buf (Printf.sprintf "  moves at level %d: %d\n" h c))
            (Hs_sim.Simulator.count_by_level levels));
      print_string (Buffer.contents buf)
    end;
    if outcome.Replay.summary.Replay.check_failures > 0 then
      exit_err
        (Printf.sprintf "%d online step(s) failed certification"
           outcome.Replay.summary.Replay.check_failures)
  in
  let run () trace_pos socket beta_s check jobs json save events m topology seed overhead
      het departures drains max_live latencies otrace stats stats_json =
    setup_obs otrace stats stats_json;
    let jobs = resolve_jobs_or_exit jobs in
    let beta =
      match beta_s with
      | "inf" -> None
      | s -> (
          match Hs_numeric.Q.of_string s with
          | q when Hs_numeric.Q.sign q >= 0 -> Some q
          | _ -> exit_usage (Printf.sprintf "migration budget %S is negative" s)
          | exception _ -> exit_usage (Printf.sprintf "unparsable migration budget %S" s))
    in
    let tr =
      match trace_pos with
      | Some path -> (
          match Trace_io.load path with Ok t -> t | Error e -> exit_usage e)
      | None -> (
          let lam = build_topology topology ~m in
          let max_live = if max_live = 0 then None else Some max_live in
          match
            Hs_workloads.Generators.trace ~seed ~lam ~events ~base:(1, 9)
              ~heterogeneity:het ~overhead ~departures ~drains ?max_live ()
          with
          | t -> t
          | exception Invalid_argument e -> exit_usage e)
    in
    (match save with
    | None -> ()
    | Some path -> (
        match Trace_io.save path tr with
        | Ok () -> ()
        | Error e -> exit_usage ("cannot write trace: " ^ e)));
    match socket with
    | None -> (
        match Replay.run ?beta ~check ~jobs tr with
        | Error e -> exit_usage e
        | Ok outcome -> report ~json ~beta ~latencies outcome)
    | Some sock -> (
        (* Streaming replay: open with the family alone, then one event
           per request.  Steps come back as JSON and re-render the same
           table; a certification failure is a status-1 response whose
           body still carries the step, so the stream continues and the
           exit code is enforced at the end (same as the local path). *)
        match Hs_service.Client.connect sock with
        | Error e -> exit_typed (Hs_core.Hs_error.Unavailable e)
        | Ok client ->
            let fail (r : Hs_service.Protocol.response) =
              Hs_service.Client.close client;
              exit_with r.status ("online failed: " ^ r.error)
            in
            let call req =
              match Hs_service.Client.call client req with
              | Error e ->
                  Hs_service.Client.close client;
                  exit_err e
              | Ok r -> r
            in
            let header =
              Trace_io.to_string (Hs_online.Trace.make_exn (Hs_online.Trace.laminar tr) [])
            in
            let beta_text = Option.map Hs_numeric.Q.to_string beta in
            let ropen =
              call
                (Hs_service.Protocol.Online
                   (Hs_service.Protocol.Online_open
                      { trace_text = header; beta = beta_text; check }))
            in
            if ropen.status <> 0 then fail ropen;
            let sid =
              match Hs_obs.Json.parse ropen.body with
              | Ok j -> (
                  match Hs_obs.Json.member "session" j with
                  | Some (Hs_obs.Json.Int sid) -> sid
                  | _ -> exit_err "open answer has no session id")
              | Error e -> exit_err ("undecodable open answer: " ^ e)
            in
            let steps =
              List.map
                (fun ev ->
                  let r =
                    call
                      (Hs_service.Protocol.Online
                         (Hs_service.Protocol.Online_event
                            { session = sid; event_text = Trace_io.event_to_line ev }))
                  in
                  if r.status <> 0 && r.body = "" then fail r;
                  match Hs_obs.Json.parse r.body with
                  | Error e -> exit_err ("undecodable step: " ^ e)
                  | Ok j -> (
                      match Replay.step_of_json j with
                      | Error e -> exit_err e
                      | Ok s -> s))
                (Hs_online.Trace.events tr)
            in
            let rclose =
              call
                (Hs_service.Protocol.Online
                   (Hs_service.Protocol.Online_close { session = sid }))
            in
            Hs_service.Client.close client;
            if rclose.status <> 0 then fail rclose;
            let summary =
              match Hs_obs.Json.parse rclose.body with
              | Error e -> exit_err ("undecodable summary: " ^ e)
              | Ok j -> (
                  match Replay.summary_of_json j with
                  | Error e -> exit_err e
                  | Ok s -> s)
            in
            report ~json ~beta ~latencies { Replay.steps; summary })
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Replay an arrival/departure/drain trace through the online scheduler: a \
          certified assignment is maintained across events, re-solving with the \
          Theorem V.2 pipeline whenever the migration budget admits it. Replays a \
          trace file or a seeded generated trace, locally (byte-identical at any \
          --jobs) or streamed through a daemon with --socket.")
    Term.(
      const run $ setup_lp_term $ trace_pos $ socket_opt_arg $ beta_arg $ check_arg $ jobs_arg
      $ json_arg $ save_arg $ events_arg $ m_arg $ topology_arg $ seed_arg
      $ overhead_arg $ het_arg $ departures_arg $ drains_arg $ max_live_arg
      $ latencies_arg $ trace_arg $ stats_arg $ stats_json_arg)

let () =
  let doc = "hierarchical and semi-partitioned parallel scheduling (IPDPS'17 reproduction)" in
  let info = Cmd.info "hsched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            exact_cmd;
            generate_cmd;
            experiment_cmd;
            sweep_cmd;
            check_cmd;
            simulate_cmd;
            online_cmd;
            topology_cmd;
            realtime_cmd;
            serve_cmd;
            request_cmd;
            stats_cmd;
            shutdown_cmd;
          ]))
