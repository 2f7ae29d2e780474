(* serve-mixed: a real [hsched serve] daemon (default configuration)
   driven open-loop from this process over two connections.

   Most requests repeat a hot set of small instances that fits the
   default 128-entry result cache; every 50th is a fresh small instance
   (n = 6 on two machines, about 1 ms of solving; solve times of this
   size and family vary little from instance to instance, so the misses
   that set the tail cost the same for every seed), which misses,
   solves, inserts and evicts alongside the hits.  Every request pays parse + digest +
   frame/protocol/admission/render in the daemon even on a hit, so the
   service layers take most of the daemon's time and the LP stays small;
   misses share admission batches with hits, so the hits queued behind a
   miss set the tail.

   Arrivals are evenly spaced at a fixed rate and each request is timed
   from its due time, so a stall also charges the requests queued
   behind it.  The run first holds the nominal rate (latency, throughput,
   failures), then climbs a geometric rate ladder to find the highest
   rate that keeps p99 within the latency limit with no failures and no
   growing backlog.  Every response body is compared byte for byte with
   the offline Solver rendering of the same instance, computed in
   set-up. *)

open Common
module P = Hs_service.Protocol
module F = Hs_service.Frame
module C = Hs_service.Client
module G = Hs_workloads.Generators
module T = Hs_laminar.Topology
module Io = Hs_model.Instance_io

let hot_size = 96
let fresh_size = 512
let fresh_every = 50

(* Offered rates, in requests per second.  Latency is reported at the
   nominal rate, where the daemon is a few percent busy on a quiet host and
   the two processes seldom compete for the CPUs.  The ladder
   climbs coarse rungs ladder_base * 2^(k/2) until one fails, then
   bisects geometrically between the last passing and the first failing
   rung, so the reported rate lies on the fixed ladder
   ladder_base * 2^(k/8).  The default 256-request admission queue holds
   only some 30 ms of work here, so with a 250 ms limit the climb ends
   where shedding starts. *)
let nominal_rps = 500.
let ladder_base = 600.
let coarse_rungs = 10
let refine_steps = 2
let probe_s = 1.2
let slo_ms = 250.
let tail_pct = 99.

let generate seed =
  let rng = Rng.create seed in
  let hot =
    Array.init hot_size (fun i ->
        let lam = if i mod 2 = 0 then T.semi_partitioned 4 else T.clustered ~m:4 ~clusters:2 in
        Io.to_string (G.hierarchical rng ~lam ~n:(4 + (i mod 5)) ~base:(1, 9) ~overhead:0.2 ()))
  in
  let fresh =
    Array.init fresh_size (fun _ ->
        Io.to_string
          (G.hierarchical rng ~lam:(T.semi_partitioned 2) ~n:6 ~base:(1, 9) ~overhead:0.2 ()))
  in
  (hot, fresh)

(* ---- the daemon child ------------------------------------------------- *)

type daemon = { pid : int; socket : string; control : C.t }

let run_dir = ".bench_run"

(* Children still running when the benchmark exits are terminated. *)
let live_children = ref []

let stop_daemon d =
  (match C.call ~timeout_s:30. d.control P.Shutdown with _ -> ());
  C.close d.control;
  (match Unix.waitpid [] d.pid with _ -> ());
  live_children := List.filter (( <> ) d.pid) !live_children;
  if Sys.file_exists d.socket then Sys.remove d.socket

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children)

let start_daemon hsched =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let socket = Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  if Sys.file_exists socket then Sys.remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process hsched [| hsched; "serve"; "--socket"; socket; "--quiet" |] devnull devnull
      Unix.stderr
  in
  Unix.close devnull;
  live_children := pid :: !live_children;
  let t0 = now () in
  while not (Sys.file_exists socket) do
    if now () -. t0 > 30. then failwith "serve-mixed: daemon socket never appeared";
    ignore (Unix.select [] [] [] 0.005)
  done;
  match C.connect socket with
  | Ok control -> { pid; socket; control }
  | Error e -> failwith ("serve-mixed: connect: " ^ e)

let solve_req ?trace_id text = P.Solve { instance_text = text; budget = None; deadline_ms = None; trace_id }

let introspect d =
  match C.call d.control (P.Introspect { recent = false }) with
  | Ok r when r.P.status = 0 -> (
      match Json.parse r.P.body with
      | Ok doc -> (
          match Json.member "metrics" doc with
          | Some m -> Result.get_ok (Metrics.of_json m)
          | None -> failwith "serve-mixed: introspect without metrics")
      | Error e -> failwith ("serve-mixed: introspect: " ^ e))
  | _ -> failwith "serve-mixed: introspect failed"

(* ---- open-loop load -------------------------------------------------- *)

(* A load connection.  Writes never block: frames wait in [out] until
   the socket takes them, so the generator keeps reading responses while
   the daemon's receive buffer is full (blocking on both sides would
   deadlock until the daemon's IO deadline cut the connection). *)
type conn = { fd : Unix.file_descr; dec : F.decoder; out : string Queue.t; mutable off : int }

let open_conn socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; dec = F.create (); out = Queue.create (); off = 0 }

let rec flush c =
  if not (Queue.is_empty c.out) then begin
    let s = Queue.peek c.out in
    match Unix.write_substring c.fd s c.off (String.length s - c.off) with
    | k ->
        c.off <- c.off + k;
        if c.off = String.length s then begin
          ignore (Queue.pop c.out);
          c.off <- 0
        end;
        flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  end

type phase = {
  n : int;
  ok : int;
  shed : int;
  errors : int;  (** other non-zero statuses and unanswered requests *)
  mismatches : int;  (** status 0 with a body unlike the offline one *)
  latency_ms : float array;  (** answered requests, from due time; infinite when not ok *)
  lateness_ms : float array;  (** send time minus due time *)
  elapsed_s : float;  (** first due time to last answer *)
  spans : Tracer.span list list;  (** server spans, one list per traced response *)
  sent : int array;  (** instance index of each request *)
}

let next_id = ref 0

(* Send [n = rate * duration] requests evenly spaced at [rate] over
   [conns] round robin, where request i carries instance [pick i]; then
   wait (at most 30 s) for the stragglers. *)
let open_loop conns ~rate ~duration ~texts ~expected ~pick ?trace_id () =
  let n = max 1 (int_of_float (rate *. duration)) in
  let which = Array.init n pick in
  let base = !next_id in
  next_id := !next_id + n;
  let frames =
    Array.mapi
      (fun i k -> F.encode (Json.to_string (P.request_to_json ~id:(base + i) (solve_req ?trace_id texts.(k)))))
      which
  in
  let latency = Array.make n infinity and lateness = Array.make n 0. in
  let ok = ref 0 and shed = ref 0 and errors = ref 0 and mismatches = ref 0 in
  let received = ref 0 and spans = ref [] in
  let t0 = now () +. 0.005 in
  let due i = t0 +. (float i /. rate) in
  let last = ref t0 in
  let buf = Bytes.create 65536 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let handle payload =
    let t = now () in
    match Result.bind (Json.parse payload) P.response_of_json with
    | Error e -> failwith ("serve-mixed: undecodable response: " ^ e)
    | Ok r ->
        let i = r.P.rid - base in
        if i < 0 || i >= n then failwith "serve-mixed: response for an unknown request";
        incr received;
        last := t;
        if r.P.status = 0 then begin
          if String.equal r.P.body expected.(which.(i)) then begin
            incr ok;
            latency.(i) <- (t -. due i) *. 1e3
          end
          else incr mismatches
        end
        else if r.P.status = 5 then incr shed
        else incr errors;
        if r.P.spans <> [] then
          spans := List.filter_map (fun j -> Result.to_option (Tracer.span_of_json j)) r.P.spans :: !spans
  in
  let read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "serve-mixed: daemon closed a connection"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | k ->
        F.feed c.dec (Bytes.sub_string buf 0 k);
        let rec pull () =
          match F.next c.dec with
          | Ok (Some p) -> handle p; pull ()
          | Ok None -> ()
          | Error e -> failwith ("serve-mixed: bad frame: " ^ F.error_to_string e)
        in
        pull ()
  in
  let sent = ref 0 in
  let give_up = t0 +. duration +. 30. in
  while !received < n && now () < give_up do
    let t = now () in
    while !sent < n && due !sent <= t do
      let i = !sent in
      lateness.(i) <- (now () -. due i) *. 1e3;
      let c = conns.(i mod Array.length conns) in
      Queue.push frames.(i) c.out;
      flush c;
      incr sent
    done;
    let timeout = if !sent < n then Float.max 0. (due !sent -. now ()) else 0.05 in
    let waiting = List.filter_map (fun c -> if Queue.is_empty c.out then None else Some c.fd) (Array.to_list conns) in
    let readable, writable, _ = Unix.select fds waiting [] timeout in
    Array.iter (fun c -> if List.mem c.fd writable then flush c) conns;
    Array.iter (fun c -> if List.mem c.fd readable then read c) conns
  done;
  {
    n;
    ok = !ok;
    shed = !shed;
    errors = !errors + (n - !received);
    mismatches = !mismatches;
    latency_ms = latency;
    lateness_ms = lateness;
    elapsed_s = !last -. t0;
    spans = !spans;
    sent = which;
  }

(* Request mix: every [fresh_every]-th request is a fresh instance, in a
   fixed rotation (each is long evicted when it comes round again); the
   others are hot ones drawn uniformly at random.  Spacing the misses
   evenly keeps chance clusters of misses from setting the tail. *)
let picker rng =
  let count = ref 0 in
  fun _ ->
    incr count;
    if !count mod fresh_every = 0 then hot_size + (!count / fresh_every mod fresh_size)
    else Rng.int rng hot_size

let failed_of p = p.shed + p.errors + p.mismatches

(* The nominal phase runs as windows of consecutive requests.  Latency
   statistics are taken per window, scaled by the host speed sampled
   before and after it, and the median over the windows is reported, so
   one scheduling hiccup of the host moves one window, not the result. *)
let nominal_windows = 8

let per_window p windows stat =
  let w = p.n / windows in
  Array.init windows (fun k -> stat (Array.sub p.latency_ms (k * w) w))

(* A probe passes with no failure, p99 within the limit, and no growing
   backlog: the median latency of its last third within twice that of
   its first third (or within a quarter of the limit). *)
let probe_p99 p = percentile p.latency_ms tail_pct

let rung_passes p =
  let p50 = per_window p 3 median in
  failed_of p = 0 && probe_p99 p <= slo_ms && p50.(2) <= Float.max (2. *. p50.(0)) (slo_ms /. 4.)

(* makespan / T* of a rendered [hsched solve] answer *)
let makespan_ratio body =
  let lines = String.split_on_char '\n' body in
  let find fmt = Option.get (List.find_map (fun l -> Scanf.sscanf_opt l fmt Fun.id) lines) in
  float (find "achieved makespan = %d") /. float (find "LP lower bound T* = %d")

let run ~hsched ~seed ~seconds ~trace =
  let setup () =
    let hot, fresh = generate seed in
    let d = start_daemon hsched in
    (* warm-up: every hot instance once, so the cache holds the hot set *)
    let warm = List.map (fun t -> solve_req t) (Array.to_list hot) in
    (match C.call_many d.control warm with
    | Ok rs when List.for_all (fun r -> r.P.status = 0) rs -> ()
    | _ -> failwith "serve-mixed: warm-up failed");
    ((hot, fresh, d), fun () -> stop_daemon d)
  in
  let (hot, fresh, d), setup_s, setup_reps = timed_setup ~reps:3 ~sample:Speed.time_pair setup in
  let texts = Array.append hot fresh in
  (* offline ground truth: what [hsched solve] prints for each instance *)
  let expected =
    Array.map
      (fun text ->
        match
          Hs_service.Solver.prepare ~default_budget:None
            { P.instance_text = text; budget = None; deadline_ms = None; trace_id = None }
        with
        | Error e -> failwith ("serve-mixed: prepare: " ^ Hs_core.Hs_error.to_string e)
        | Ok prep -> (
            match Hs_service.Solver.execute prep with
            | Ok body -> body
            | Error e -> failwith ("serve-mixed: execute: " ^ Hs_core.Hs_error.to_string e)))
      texts
  in
  let ratio_vs_lp = mean (Array.map makespan_ratio expected) in
  let digest =
    combined_digest
      (Array.to_list (Array.map (fun t -> Io.digest (Result.get_ok (Io.of_string t))) texts))
  in
  let conns = [| open_conn d.socket; open_conn d.socket |] in
  let rng = Rng.create (seed + 1) in
  let pick = picker rng in
  let load ?trace_id ~rate ~duration () =
    open_loop conns ~rate ~duration ~texts ~expected ~pick ?trace_id ()
  in
  let detail_common =
    [
      ("inputs_digest", Json.String digest);
      ("hot_set", Json.Int hot_size);
      ("fresh_pool", Json.Int fresh_size);
      ("fresh_share", Json.Float (1. /. float fresh_every));
      ("nominal_rps", Json.Float nominal_rps);
      ("setup_reps_s", Json.List (Array.to_list (Array.map (fun t -> Json.Float t) setup_reps)));
    ]
  in
  let finish () =
    let rss = peak_rss_mb (string_of_int d.pid) in
    Array.iter (fun c -> Unix.close c.fd) conns;
    stop_daemon d;
    rss
  in
  let probe_row rate p =
    Json.Obj
      [
        ("rps", Json.Float rate);
        (* null when more than 1% of the probe's requests failed *)
        ("p99_ms", let v = probe_p99 p in if Float.is_finite v then Json.Float v else Json.Null);
        ("failed", Json.Int (failed_of p));
        ("passed", Json.Bool (rung_passes p));
      ]
  in
  if not trace then begin
    (* each window needs enough requests for its p99 *)
    let nominal_s =
      Float.max (0.7 *. seconds) (float (nominal_windows * min_samples tail_pct) /. nominal_rps)
    in
    (* window by window, the host speed sampled on both CPUs between
       windows, while the daemon is idle *)
    let windows, speed_samples =
      let rec go k before acc samples =
        if k = nominal_windows then (List.rev acc, Array.of_list (List.rev samples))
        else begin
          let p = load ~rate:nominal_rps ~duration:(nominal_s /. float nominal_windows) () in
          let after = Speed.time_pair () in
          go (k + 1) after ((p, Speed.factor before after) :: acc) (after :: samples)
        end
      in
      let first = Speed.time_pair () in
      go 0 first [] [ first ]
    in
    let total f = List.fold_left (fun a (p, _) -> a + f p) 0 windows in
    let n = total (fun p -> p.n) and ok = total (fun p -> p.ok) and failed = total failed_of in
    let elapsed_s = List.fold_left (fun a (p, _) -> a +. p.elapsed_s) 0. windows in
    let lateness = Array.concat (List.map (fun (p, _) -> p.lateness_ms) windows) in
    (* the median over windows of a per-window statistic, scaled or not *)
    let over_windows ?(scaled = true) stat =
      median
        (Array.of_list (List.map (fun (p, f) -> stat p.latency_ms *. if scaled then f else 1.) windows))
    in
    let p99 l = percentile l tail_pct in
    let cpu_d0 = cpu_seconds d.pid and cpu_g0 = cpu_seconds (Unix.getpid ()) and wall0 = now () in
    let probes = ref [] and mismatches = ref (total (fun p -> p.mismatches)) in
    (* a failed probe is repeated once, so that a host hiccup during
       one probe does not end the climb *)
    let attempt rate =
      let p = load ~rate ~duration:probe_s () in
      mismatches := !mismatches + p.mismatches;
      probes := probe_row rate p :: !probes;
      rung_passes p
    in
    let passes rate = attempt rate || attempt rate in
    let rung k = ladder_base *. (2. ** (float k /. 2.)) in
    (* coarse climb; below the base when even the base fails *)
    let rec up k = if k < coarse_rungs && passes (rung k) then up (k + 1) else k in
    let rec down k = if k > -coarse_rungs && not (passes (rung k)) then down (k - 1) else k in
    let lo, hi =
      match up 0 with
      | 0 -> let k = down (-1) in (rung k, rung (k + 1))
      | k -> (rung (k - 1), rung k)
    in
    let lo = ref lo and hi = ref hi in
    if !hi < rung coarse_rungs then
      for _ = 1 to refine_steps do
        let mid = sqrt (!lo *. !hi) in
        if passes mid then lo := mid else hi := mid
      done;
    (* shows whether the daemon or this generator ran out of CPU first *)
    let ladder_cpu =
      Json.Obj
        [
          ("daemon_s", Json.Float (cpu_seconds d.pid -. cpu_d0));
          ("generator_s", Json.Float (cpu_seconds (Unix.getpid ()) -. cpu_g0));
          ("wall_s", Json.Float (now () -. wall0));
        ]
    in
    let rss = finish () in
    {
      correct = !mismatches = 0;
      attempted = n;
      failed;
      end_to_end =
        [
          ("setup_s", setup_s);
          (* follows the offered rate, so not scaled *)
          ("ops_per_s", float ok /. elapsed_s);
          ("latency_p50_ms", over_windows median);
          ("latency_tail_ms", over_windows p99);
          ("max_rps_at_slo", !lo);
          ("ok_share", ratio (float ok) (float n));
          ("ratio_vs_lp", ratio_vs_lp);
          ("peak_rss_mb", rss);
        ];
      per_layer = [];
      detail =
        detail_common
        @ [
            ("failed_share", Json.Float (ratio (float failed) (float n)));
            ( "tail",
              Json.Obj
                [
                  ("percentile", Json.Float tail_pct);
                  ("samples", Json.Int n);
                  ("windows", Json.Int nominal_windows);
                  ("samples_per_window", Json.Int (n / nominal_windows));
                ] );
            ("slo", Json.Obj [ ("percentile", Json.Float tail_pct); ("limit_ms", Json.Float slo_ms) ]);
            ("lateness_p99_ms", Json.Float (percentile lateness 99.));
            ("host_speed", Speed.summary speed_samples);
            ( "unscaled",
              Json.Obj
                [
                  ("latency_p50_ms", Json.Float (over_windows ~scaled:false median));
                  ("latency_tail_ms", Json.Float (over_windows ~scaled:false p99));
                ] );
            ("ladder", Json.List (List.rev !probes));
            ("ladder_cpu", ladder_cpu);
          ];
    }
  end
  else begin
    (* Untraced half, then a traced half whose requests all carry a
       trace id, so the daemon ships every batch's spans back. *)
    let half = seconds /. 2. in
    let cpu0 = cpu_seconds d.pid and m0 = introspect d in
    let plain = load ~rate:nominal_rps ~duration:half () in
    let cpu1 = cpu_seconds d.pid and m1 = introspect d in
    let traced = load ~trace_id:(Printf.sprintf "perfbench-%d" seed) ~rate:nominal_rps ~duration:half () in
    let cpu2 = cpu_seconds d.pid in
    (* A batch's spans ride on each of its traced responses, and the
       daemon clears its tracer between batches, so each batch's list is
       kept once and nested on its own. *)
    let seen = Hashtbl.create 4096 in
    let batches =
      List.filter
        (function
          | [] -> false
          | (sp : Tracer.span) :: _ ->
              let key = (sp.seq, sp.start_ns) in
              if Hashtbl.mem seen key then false else (Hashtbl.add seen key (); true))
        traced.spans
    in
    let spans = new_spans () in
    List.iter (add_spans spans) batches;
    let remote = List.concat batches in
    let durations name =
      Array.of_list
        (List.filter_map
           (fun (sp : Tracer.span) -> if sp.name = name then Some (Int64.to_float sp.dur_ns *. 1e-6) else None)
           remote)
    in
    let solve_ms = durations "service.solve" and render_ms = durations "service.render" in
    (* parse and digest, the per-request work a hit still pays, timed
       on the texts the traced half sent *)
    let sent_texts = Array.to_list (Array.map (fun k -> texts.(k)) traced.sent) in
    let t0 = now () in
    let insts = List.map (fun t -> Result.get_ok (Io.of_string t)) sent_texts in
    let t1 = now () in
    List.iter (fun i -> ignore (Io.digest i)) insts;
    let t2 = now () in
    let nsent = float (List.length sent_texts) in
    let c0 = counter m0 and c1 = counter m1 in
    let diff name = c1 name -. c0 name in
    let hist name =
      let h1 = Option.get (Metrics.find_histogram m1 name) and h0 = Option.get (Metrics.find_histogram m0 name) in
      (h1.buckets, Array.mapi (fun i c -> c - h0.counts.(i)) h1.counts, h1.sum - h0.sum, h1.observations - h0.observations)
    in
    let hist_quantile name q =
      let buckets, counts, _, obs = hist name in
      let target = Float.ceil (q *. float obs) in
      let rec go i acc = function
        | b :: rest -> if float (acc + counts.(i)) >= target then float b else go (i + 1) (acc + counts.(i)) rest
        | [] -> float (List.fold_left max 0 buckets) (* overflow bucket *)
      in
      if obs = 0 then 0. else go 0 0 buckets
    in
    let hist_mean name = let _, _, sum, obs = hist name in ratio (float sum) (float obs) in
    let requests = diff "service.requests" in
    let hits = diff "service.cache.hit" and misses = diff "service.cache.miss" in
    let ntraced = float traced.n in
    let per_req x = x /. ntraced *. 1e3 in
    let busy_plain = cpu1 -. cpu0 and busy_traced = cpu2 -. cpu1 in
    let lp_s = Layers.lp_time spans in
    let pipeline_s = incl_of spans "pipeline.solve" in
    let values =
      [
        ("io.parse_us", (t1 -. t0) /. nsent *. 1e6);
        ("io.digest_us", (t2 -. t1) /. nsent *. 1e6);
        ("lp.busy_s", lp_s /. ntraced);
        ("lp.share", ratio lp_s busy_traced);
        ("cache.hit_ratio", ratio hits (hits +. misses));
        ("cache.evictions", diff "service.cache.evict");
        ("admission.queue_p50_ms", hist_quantile "service.phase.queue_ms" 0.5);
        ("admission.queue_p99_ms", hist_quantile "service.phase.queue_ms" 0.99);
        ("admission.batch_size", ratio requests (diff "service.batches"));
        ("admission.shed", diff "service.shed");
        ("admission.deadline_miss", diff "service.deadline_miss");
        ("engine.solve_p50_ms", if solve_ms = [||] then 0. else median solve_ms);
        ("engine.solve_p99_ms", if solve_ms = [||] then 0. else percentile solve_ms 99.);
        ("render.ms", if render_ms = [||] then 0. else mean render_ms);
        ("write.ms", hist_mean "service.phase.write_ms");
        ("frame.bytes_in", ratio (diff "frame.bytes.in") requests);
        ("frame.bytes_out", ratio (diff "frame.bytes.out") requests);
        ("service.share", ratio (busy_traced -. pipeline_s) busy_traced);
        ("gen.lateness_ms", percentile plain.lateness_ms 99.);
        ("self.pipeline_ms", per_req (self_of spans Layers.pipeline_spans));
        ("self.search_ms", per_req (self_of spans Layers.search_spans));
        ("self.lp_ms", per_req (self_of spans Layers.lp_spans));
        ("self.round_ms", per_req (self_of spans [ "round.lst" ]));
        ("self.sched_ms", per_req (self_of spans [ "sched.alg23"; "pushdown.sweep" ]));
        ("self.service_ms", per_req (self_of spans [ "service.batch"; "service.solve"; "service.render" ]));
        (* open loop: throughput follows the offered rate, so the
           overhead shows as daemon CPU per request *)
        ( "trace.overhead_share",
          ratio (busy_traced /. ntraced) (busy_plain /. float plain.n) -. 1. );
      ]
    in
    ignore (finish ());
    let failed = failed_of plain + failed_of traced in
    {
      correct = plain.mismatches + traced.mismatches = 0;
      attempted = plain.n + traced.n;
      failed;
      end_to_end = [];
      per_layer = values;
      detail =
        detail_common
        @ [
            ("daemon_cpu_s", Json.Obj [ ("plain", Json.Float busy_plain); ("traced", Json.Float busy_traced) ]);
            ("remote_spans", Json.Int (List.length remote));
          ];
    }
  end
