(* batch-solve: the certified offline pipeline, [hsched solve --check].

   One operation parses an instance text, runs the Theorem V.2 pipeline
   (Approx.Exact.solve_checked: binary search over T*, LST rounding,
   Algorithms 2-3) and certifies the outcome with Certify.outcome, which
   re-derives T* with the exact simplex.  The batch is a sequence of
   rounds of fixed composition over the five generated families; only
   the instance contents vary with the seed, so a run's throughput is a
   stable average.  Exact-Q LP work dominates: the large tier is where
   the cost per pivot grows, and no warm start or service layer is
   involved. *)

open Common
module A = Hs_core.Approx.Exact
module G = Hs_workloads.Generators
module T = Hs_laminar.Topology
module Io = Hs_model.Instance_io

type family = Semi | Clustered | Smp | Random | Singletons

let families = [| Semi; Clustered; Smp; Random; Singletons |]

(* The [hsched solve --topology] families, at machine count [m]. *)
let laminar rng ~m = function
  | Semi -> T.semi_partitioned m
  | Clustered -> T.clustered ~m ~clusters:(if m mod 2 = 0 then 2 else 1)
  | Smp -> T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:(max 1 (m / 4))
  | Random -> G.random_laminar rng ~m ()
  | Singletons -> T.singletons m

(* One round: 40 small instances (n = 4 to 16) with a medium instance
   (n = 24 to 40) after every seven, then one large instance (n = 64,
   smp-cmp or clustered in alternate rounds).  Families and sizes are
   the same in every round, so a run's mix does not depend on how many
   rounds it completes and only the processing times vary with the seed.
   The sizes are chosen so that the median operation lies inside the
   n = 8 to 10 instances and the p90 one inside the n = 24 ones, never
   between two size classes, and a run solves 300 to 600 instances, so
   the statistics are properties of the mix rather than of the seed.
   The large instance takes about 40% of a round. *)
let small_sizes = [| 4; 6; 8; 8; 10; 10; 12; 16 |]
let medium_sizes = [| 24; 24; 24; 24; 32; 40 |]

let round_shapes k =
  let small i = (families.(i mod 5), (if i mod 4 = 3 then 8 else 4), small_sizes.(i mod 8)) in
  let medium j = (families.(j mod 5), 4, medium_sizes.(j)) in
  let large = ((if k mod 2 = 0 then Smp else Clustered), 4, 64) in
  List.concat
    (List.init 40 (fun i -> small i :: (if i mod 7 = 6 || i = 39 then [ medium (i / 7) ] else [])))
  @ [ large ]

let generate_round rng k =
  List.map
    (fun (fam, m, n) ->
      let lam = laminar rng ~m fam in
      let inst = G.hierarchical rng ~lam ~n ~base:(1, 9) ~heterogeneity:1.5 ~overhead:0.2 () in
      (Io.to_string inst, Io.digest inst))
    (round_shapes k)

(* Rounds generated up front; a run that needs more cycles through them. *)
let pregenerated_rounds = 24

(* [latency_s] on the process CPU clock, [wall_s] on the wall clock;
   [period] is the host-speed period it ran in *)
type op_result = { latency_s : float; wall_s : float; period : int; ok : bool; ratio : float }

(* parse -> solve -> certify, the operation a user of [solve --check] waits for *)
let solve_op text =
  let period = Speed.tick () in
  let t0 = now () and c0 = cpu_now () in
  let ok, ratio =
    span "bench.op" (fun () ->
        match span "io.parse" (fun () -> Io.of_string text) with
        | Error _ -> (false, 0.)
        | Ok inst -> (
            match A.solve_checked inst with
            | Error _ -> (false, 0.)
            | Ok o ->
                let v = span "check.certify" (fun () -> Hs_check.Certify.outcome o) in
                ( Hs_check.Verdict.ok v && o.A.makespan <= 2 * o.A.t_lp,
                  float o.A.makespan /. float o.A.t_lp )))
  in
  { latency_s = cpu_now () -. c0; wall_s = now () -. t0; period; ok; ratio }

let count_failed = List.fold_left (fun a r -> if r.ok then a else a + 1) 0

let tail_pct = 90.

(* ratio_vs_lp is taken over the first rounds, which every run completes *)
let ratio_rounds = 4

(* Solve whole rounds, cycling through the generated ones. *)
let timed_phase rounds =
  timed_rounds
    ~round:(fun k -> List.map (fun (text, _) -> solve_op text) rounds.(k mod Array.length rounds))
    ~ops:List.length

let run ~seed ~seconds ~trace =
  let setup () =
    let rng = Rng.create seed in
    let rounds = Array.init pregenerated_rounds (fun k -> generate_round (Rng.split rng) k) in
    (* warm-up: one small solve, so lazy initialisation is not timed *)
    ignore (solve_op (fst (List.hd rounds.(0))));
    (rounds, ignore)
  in
  let rounds, setup_s, setup_reps = timed_setup ~reps:5 ~sample:(fun () -> Speed.time now) setup in
  let digest = combined_digest (Array.to_list rounds |> List.concat_map (List.map snd)) in
  let detail_common =
    [
      ("inputs_digest", Json.String digest);
      ("rounds_generated", Json.Int pregenerated_rounds);
      ("ops_per_round", Json.Int (List.length rounds.(0)));
      ("setup_reps_s", Json.List (Array.to_list (Array.map (fun t -> Json.Float t) setup_reps)));
    ]
  in
  if not trace then begin
    Speed.start cpu_now;
    let per_round, elapsed =
      timed_phase rounds ~seconds ~min_rounds:ratio_rounds ~min_ops:(min_samples tail_pct)
        ~on_round:ignore
    in
    let results = List.concat per_round in
    let n = List.length results and failed = count_failed results in
    let tm =
      closed_loop ~tail_pct ~elapsed (List.map (fun r -> (r.latency_s, r.wall_s, r.period)) results)
    in
    let ratios =
      Array.of_list
        (List.concat_map (List.map (fun r -> r.ratio)) (List.filteri (fun i _ -> i < ratio_rounds) per_round))
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
    let (traced, traced_s), t =
      traced_phase (timed_phase rounds ~seconds:half ~min_rounds:1 ~min_ops:1)
    in
    let plain = List.concat plain and traced = List.concat traced in
    let round_ops = float (List.length rounds.(0)) in
    let nops = List.length traced in
    let per_op x = x /. float nops in
    let op_s = incl_of t.spans "bench.op" and check_s = incl_of t.spans "check.certify" in
    (* digest cost, measured on the first round's instances *)
    let digest_us =
      let insts = List.map (fun (text, _) -> Result.get_ok (Io.of_string text)) rounds.(0) in
      let t0 = now () in
      List.iter (fun i -> ignore (Io.digest i)) insts;
      (now () -. t0) /. round_ops *. 1e6
    in
    let failed = count_failed plain + count_failed traced in
    {
      correct = failed = 0;
      attempted = List.length plain + nops;
      failed;
      end_to_end = [];
      per_layer =
        Layers.solver t ~round_ops ~nops ~op_s
        @ [
            ("io.parse_us", per_op (incl_of t.spans "io.parse") *. 1e6);
            ("io.digest_us", digest_us);
            ("check.busy_s", per_op check_s);
            ("check.share", ratio check_s op_s);
            ("check.failures", float (count_failed traced));
            ("self.io_ms", per_op (self_of t.spans [ "io.parse" ]) *. 1e3);
            ("self.check_ms", per_op (self_of t.spans [ "check.certify" ]) *. 1e3);
            ("self.bench_ms", per_op (self_of t.spans [ "bench.op" ]) *. 1e3);
            ( "trace.overhead_share",
              1. -. ratio (float nops /. traced_s.cpu_s) (float (List.length plain) /. plain_s.cpu_s) );
          ];
      detail = detail_common @ [ ("traced_ops", Json.Int nops); ("plain_ops", Json.Int (List.length plain)) ];
    }
  end
