(* online-replay: event-by-event replay through Replay.Session.

   The two trace families of [bench online] that stress re-solving:
   growth (arrivals until the live cap bites, then forced turnover) and
   drain (churn while three machines retire), with that bench's
   generator settings and trace seeds 1301 and 1401 shifted by the
   workload seed, but shorter and, for growth, capped at 10 live jobs
   instead of 12.  One operation is one event at migration budget
   beta = 1/2 with per-step certification and the default warm start.
   Consecutive LPs are small (at most 10 live jobs) and nearly
   identical, so the warm basis store,
   budget adoption and per-step checks carry the cost, and large-LP work
   is absent. *)

open Common
module Replay = Hs_online.Replay
module Trace = Hs_online.Trace
module T = Hs_laminar.Topology
module G = Hs_workloads.Generators

(* Short traces, many per run: a trace's cost is mostly set by the jobs
   it keeps live and varies by about a fifth from trace to trace, so a
   run averages over more than a hundred of them to make its throughput
   a property of the family rather than of the seed.  Growth events (about 5 ms of
   CPU each once 10 jobs are live) outnumber the cheap drain events
   (about 1 ms), so the median event lies inside the growth mode rather
   than in the gap between the two. *)
let growth_events = 40
let growth_live = 10
let drain_events = 20
let events_per_round = growth_events + drain_events

let trace_seed base seed k = base + (7919 * ((1000 * seed) + k))

(* One round: a growth trace then a drain trace. *)
let generate_round seed k =
  let lam = T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2 in
  [
    G.trace ~seed:(trace_seed 1301 seed k) ~lam ~events:growth_events ~base:(1, 9)
      ~heterogeneity:1.3 ~overhead:0.2 ~departures:0.0 ~max_live:growth_live ();
    G.trace ~seed:(trace_seed 1401 seed k) ~lam ~events:drain_events ~base:(1, 9)
      ~heterogeneity:1.5 ~overhead:0.15 ~departures:0.35 ~drains:3 ~max_live:8 ();
  ]

let pregenerated_rounds = 192

(* ratio_vs_lp is taken over the first rounds, which every run completes *)
let ratio_rounds = 40
let beta = Hs_numeric.Q.of_ints 1 2

(* [latency_s] on the process CPU clock, [wall_s] on the wall clock;
   [period] is the host-speed period it ran in *)
type op_result = { latency_s : float; wall_s : float; period : int; ok : bool; ratio : float option }

(* Replay one trace; [check] is on for every measured replay. *)
let replay ?(check = true) tr =
  match Replay.Session.create ~beta ~check (Trace.laminar tr) with
  | Error e -> failwith ("online-replay: session: " ^ e)
  | Ok sess ->
      let ops =
        List.map
          (fun ev ->
            let period = Speed.tick () in
            let t0 = now () and c0 = cpu_now () in
            let r = span "online.step" (fun () -> Replay.Session.step sess ev) in
            let latency_s = cpu_now () -. c0 and wall_s = now () -. t0 in
            match r with
            | Error _ -> { latency_s; wall_s; period; ok = false; ratio = None }
            | Ok st ->
                let ok =
                  (not check)
                  || match st.Replay.verdict with Some v -> Hs_check.Verdict.ok v | None -> false
                in
                let ratio =
                  if st.Replay.t_lp > 0 then Some (float st.Replay.makespan /. float st.Replay.t_lp)
                  else None
                in
                { latency_s; wall_s; period; ok; ratio })
          (Trace.events tr)
      in
      (ops, Replay.Session.summary sess)

let count_failed = List.fold_left (fun a r -> if r.ok then a else a + 1) 0

(* p95 rather than the p99 every run could support: the p99 of a run's
   few thousand events is set by a few dozen of the heaviest, and moved
   by about an eighth from run to run on a shared host even after host
   speed scaling; p95 has some two hundred events beyond it. *)
let tail_pct = 95.

(* Replay whole rounds, cycling through the generated ones; a round's
   result is one (steps, summary) pair per trace. *)
let timed_phase rounds =
  timed_rounds
    ~round:(fun k -> List.map replay rounds.(k mod Array.length rounds))
    ~ops:(List.fold_left (fun a (ops, _) -> a + List.length ops) 0)

let ops_of per_round = List.concat_map (List.concat_map fst) per_round

let run ~seed ~seconds ~trace =
  let setup () =
    let rounds = Array.init pregenerated_rounds (generate_round seed) in
    (* warm-up: the first events of one fixed trace, so lazy
       initialisation is not timed and costs the same for every seed *)
    let first = List.hd (generate_round 0 0) in
    let head = List.filteri (fun i _ -> i < 8) (Trace.events first) in
    ignore (replay (Trace.make_exn (Trace.laminar first) head));
    (rounds, ignore)
  in
  let rounds, setup_s, setup_reps = timed_setup ~reps:5 ~sample:(fun () -> Speed.time now) setup in
  let digest =
    combined_digest (Array.to_list rounds |> List.concat_map (List.map Hs_online.Trace_io.digest))
  in
  let detail_common =
    [
      ("inputs_digest", Json.String digest);
      ("rounds_generated", Json.Int pregenerated_rounds);
      ("ops_per_round", Json.Int events_per_round);
      ("setup_reps_s", Json.List (Array.to_list (Array.map (fun t -> Json.Float t) setup_reps)));
    ]
  in
  if not trace then begin
    Speed.start cpu_now;
    let per_round, elapsed =
      timed_phase rounds ~seconds ~min_rounds:ratio_rounds ~min_ops:(min_samples tail_pct)
        ~on_round:ignore
    in
    let results = ops_of per_round in
    let n = List.length results and failed = count_failed results in
    let tm =
      closed_loop ~tail_pct ~elapsed (List.map (fun r -> (r.latency_s, r.wall_s, r.period)) results)
    in
    let ratios =
      Array.of_list
        (List.filter_map (fun r -> r.ratio) (ops_of (List.filteri (fun i _ -> i < ratio_rounds) per_round)))
    in
    {
      correct = failed = 0;
      attempted = n;
      failed;
      end_to_end =
        [
          ("setup_s", setup_s);
          ("ops_per_s", tm.ops_per_s);
          ("latency_p50_ms", tm.p50_ms);
          ("latency_tail_ms", tm.tail_ms);
          (* not served at a rate: the closed-loop capacity of the one
             solver domain *)
          ("max_rps_at_slo", tm.ops_per_s);
          ("ok_share", 1. -. ratio (float failed) (float n));
          ("ratio_vs_lp", mean ratios);
          ("peak_rss_mb", peak_rss_mb "self");
        ];
      per_layer = [];
      detail =
        detail_common
        @ [
            ("rounds", Json.Int (List.length per_round));
          ]
        @ tm.timing_detail
        @ [
            ("failed_share", Json.Float (ratio (float failed) (float n)));
            ("tail", Json.Obj [ ("percentile", Json.Float tail_pct); ("samples", Json.Int n) ]);
          ];
    }
  end
  else begin
    (* an untraced half, then a traced half *)
    let half = seconds /. 2. in
    let plain, plain_s = timed_phase rounds ~seconds:half ~min_rounds:1 ~min_ops:1 ~on_round:ignore in
    let (traced_rounds, traced_s), t =
      traced_phase (timed_phase rounds ~seconds:half ~min_rounds:1 ~min_ops:1)
    in
    let plain = ops_of plain and traced = ops_of traced_rounds in
    let sum_latency = List.fold_left (fun a r -> a +. r.latency_s) 0. in
    (* Certification runs inside Session.step, so its cost is measured
       by difference: the first round replayed again, traced as well,
       without per-step checks. *)
    let round0 = List.hd traced_rounds in
    let checked_s = sum_latency (ops_of [ round0 ]) in
    start_tracing ();
    let unchecked_s = List.fold_left (fun a tr -> a +. sum_latency (fst (replay ~check:false tr))) 0. rounds.(0) in
    Tracer.clear ();
    Tracer.disable ();
    let round_ops = float events_per_round in
    let nops = List.length traced in
    let per_op x = x /. float nops in
    let step_ms = Array.of_list (List.map (fun r -> r.latency_s *. 1e3) traced) in
    let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 round0 in
    let resolves = sum (fun s -> s.Replay.resolves) in
    let check_per_op = (checked_s -. unchecked_s) /. round_ops in
    let failed = count_failed plain + count_failed traced in
    {
      correct = failed = 0;
      attempted = List.length plain + nops;
      failed;
      end_to_end = [];
      per_layer =
        Layers.solver t ~round_ops ~nops ~op_s:(sum_latency traced)
        @ [
            ("check.busy_s", check_per_op);
            ("check.share", ratio (checked_s -. unchecked_s) checked_s);
            ("check.failures", float (count_failed traced));
            ("online.step_p50_ms", median step_ms);
            ("online.step_tail_ms", percentile step_ms tail_pct);
            ("online.resolves", float resolves);
            ("online.adoption_ratio", ratio (float (sum (fun s -> s.Replay.adoptions))) (float resolves));
            ("online.budget_blocked", float (sum (fun s -> s.Replay.budget_blocked)));
            ("online.migrated_volume", float (sum (fun s -> s.Replay.migrated_volume)));
            ("self.check_ms", check_per_op *. 1e3);
            (* includes the un-spanned part of the inline certification *)
            ("self.online_ms", per_op (self_of t.spans [ "online.step" ]) *. 1e3);
            ( "trace.overhead_share",
              1. -. ratio (float nops /. traced_s.cpu_s) (float (List.length plain) /. plain_s.cpu_s) );
          ];
      detail =
        detail_common
        @ [
            ("traced_ops", Json.Int nops);
            ("plain_ops", Json.Int (List.length plain));
            ( "check_differential_s",
              Json.Obj [ ("checked", Json.Float checked_s); ("unchecked", Json.Float unchecked_s) ] );
          ];
    }
  end
