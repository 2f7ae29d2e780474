(* Measurement helpers shared by the three workloads: clocks, order
   statistics, span self-time aggregation, metric and report records. *)

module Json = Hs_obs.Json
module Tracer = Hs_obs.Tracer
module Metrics = Hs_obs.Metrics
module Rng = Hs_workloads.Rng

let now = Unix.gettimeofday
let wall_clock_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* CPU seconds (user + system) this process has used.  batch-solve and
   online-replay time their operations on this clock: the process only
   solves, with one domain and no waiting, so an operation's CPU time is
   its wall time less the time the host ran other work on its CPU. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- order statistics ------------------------------------------------ *)

(* Nearest-rank percentile ([p] in [0, 100]) of an unsorted sample. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1)))

let median xs = percentile xs 50.

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float (Array.length xs)

(* A tail percentile is only reported with at least ten samples beyond
   it, so a run must collect [min_samples p] operations before it may
   stop.  Each workload fixes its percentile (the highest one its
   shortest run always supports), so the reported percentile never
   changes between runs. *)
let min_samples p = int_of_float (Float.round (10. /. (1. -. (p /. 100.))))

let ratio a b = if b = 0. then 0. else a /. b

(* ---- host speed ------------------------------------------------------- *)

(* On a shared host the same work runs up to half again slower for tens
   of seconds at a time while other tenants load the cores and caches,
   and CPU time slows with it.  So every workload also times a fixed
   reference computation, at least every [interval_s] between its
   operations, and reports each operation's time scaled by
   [nominal_s] / (the mean reference time of the samples either side of
   it): seconds at a fixed host speed, the one at which the reference
   takes [nominal_s].  The reference is this file's own code, so it is
   the same on every commit and a change to the program moves scaled
   times as it moves raw ones.  It is integer work like the exact
   solver's (schoolbook bignum products, then sorting a 1 MiB array) in
   buffers allocated once, the large ones outside the OCaml heap: a
   reference that allocated would be charged for collecting the solver's
   garbage, one that stayed in cache would miss the slowdowns, and
   megabytes of long-lived heap blocks made the solver's heap grow to
   four times its size.  Unscaled figures are in the detail line. *)
module Speed = struct
  let nominal_s = 0.010
  let interval_s = 0.25
  let sort_len = 1 lsl 17

  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

  let keys =
    let a = ints sort_len in
    for i = 0 to sort_len - 1 do
      a.{i} <- ((i * 40503) + 17) land 0xfffff
    done;
    a

  type buffers = { limbs : int array; prod : int array; sorted : ints }

  (* one set per domain that may run the reference at the same time *)
  let buffers =
    Array.init 2 (fun _ -> { limbs = Array.make 48 0; prod = Array.make 64 0; sorted = ints sort_len })

  let reference { limbs; prod; sorted } =
    for i = 0 to 47 do
      limbs.(i) <- i * 7919 land 0xffffff
    done;
    for k = 1 to 2500 do
      Array.fill prod 0 64 0;
      for i = 0 to 47 do
        prod.(i) <- prod.(i) + (limbs.(i) * (k land 0xffffff));
        prod.(i + 1) <- prod.(i + 1) + (limbs.(i) * 3)
      done;
      let carry = ref 0 in
      for i = 0 to 47 do
        let v = prod.(i) + !carry in
        carry := v lsr 24;
        limbs.(i) <- v land 0xffffff
      done
    done;
    Bigarray.Array1.blit keys sorted;
    (* Shell sort, in place *)
    let gap = ref (sort_len / 2) in
    while !gap > 0 do
      for i = !gap to sort_len - 1 do
        let v = sorted.{i} in
        let j = ref i in
        while !j >= !gap && sorted.{!j - !gap} > v do
          sorted.{!j} <- sorted.{!j - !gap};
          j := !j - !gap
        done;
        sorted.{!j} <- v
      done;
      gap := !gap / 2
    done;
    limbs.(0) + sorted.{sort_len / 2}

  (* Duration of one reference run on [clock]. *)
  let time ?(slot = 0) clock =
    let t0 = clock () in
    ignore (Sys.opaque_identity (reference buffers.(slot)));
    clock () -. t0

  (* Duration of a reference run on each of two domains at once, on the
     wall clock, averaged: the speed of both CPUs a client and a daemon
     share. *)
  let time_pair () =
    let other = Domain.spawn (fun () -> time ~slot:1 now) in
    let mine = time now in
    (mine +. Domain.join other) /. 2.

  (* Scale factor of an interval whose bounding samples took [a] and [b]. *)
  let factor a b = nominal_s /. ((a +. b) /. 2.)

  (* Sampling around a stream of operations: [start clock] takes the
     first sample, [tick ()] before each operation takes one when due and
     returns the operation's period, [finish ()] takes the closing sample
     and returns the factor of each period (index 0 unused). *)
  let clock = ref cpu_now
  let active = ref false
  let samples = ref []
  let count = ref 0
  let last = ref 0.

  let sample () =
    samples := time !clock :: !samples;
    incr count;
    last := !clock ()

  let start c =
    clock := c;
    active := true;
    samples := [];
    count := 0;
    sample ()

  let tick () =
    if !active && !clock () -. !last >= interval_s then sample ();
    !count

  let finish () =
    sample ();
    active := false;
    let a = Array.of_list (List.rev !samples) in
    (Array.init (Array.length a) (fun p -> if p = 0 then nan else factor a.(p - 1) a.(p)), a)

  (* The detail-line summary of a phase's reference samples. *)
  let summary samples =
    Json.Obj
      [
        ("nominal_ms", Json.Float (nominal_s *. 1e3));
        ("samples", Json.Int (Array.length samples));
        ("min_ms", Json.Float (Array.fold_left Float.min infinity samples *. 1e3));
        ("median_ms", Json.Float (median samples *. 1e3));
        ("max_ms", Json.Float (Array.fold_left Float.max 0. samples *. 1e3));
      ]
end

(* ---- process probes ---------------------------------------------------- *)

(* High-water resident set of a process ("self" or a pid), in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no VmHWM line")
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float kb /. 1024.
            | None -> go ())
      in
      go ())

(* User + system CPU seconds a process has consumed (clock ticks of 1/100 s). *)
let cpu_seconds pid =
  let text = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* fields after the parenthesised command name; utime and stime are
     the 12th and 13th of them *)
  let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* ---- span self times ----------------------------------------------------- *)

(* Per span name: the summed duration of its spans and their summed self
   time (duration minus the part covered by direct children). *)
type span_agg = { mutable incl_s : float; mutable self_s : float }

let new_spans () : (string, span_agg) Hashtbl.t = Hashtbl.create 16

(* Spans of one domain nest properly, so open order ([seq]) plus depth
   rebuilds the tree: a span's parent is the nearest earlier-opened span
   one level up that is still open. *)
let add_spans tbl (spans : Tracer.span list) =
  let record (sp : Tracer.span) child_ns =
    let a =
      match Hashtbl.find_opt tbl sp.name with
      | Some a -> a
      | None ->
          let a = { incl_s = 0.; self_s = 0. } in
          Hashtbl.add tbl sp.name a;
          a
    in
    let d = Int64.to_float sp.dur_ns *. 1e-9 in
    a.incl_s <- a.incl_s +. d;
    a.self_s <- a.self_s +. d -. (Int64.to_float child_ns *. 1e-9)
  in
  let stack = ref [] in
  let sorted = List.sort (fun (a : Tracer.span) b -> compare a.seq b.seq) spans in
  List.iter
    (fun (sp : Tracer.span) ->
      let rec pop () =
        match !stack with
        | ((top : Tracer.span), child) :: rest when top.depth >= sp.depth ->
            record top !child;
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (_, child) :: _ -> child := Int64.add !child sp.dur_ns
      | [] -> ());
      stack := (sp, ref 0L) :: !stack)
    sorted;
  List.iter (fun (sp, child) -> record sp !child) !stack

let span_get tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> { incl_s = 0.; self_s = 0. }

let self_of tbl names = List.fold_left (fun acc n -> acc +. (span_get tbl n).self_s) 0. names
let incl_of tbl name = (span_get tbl name).incl_s

(* Run [f] inside a benchmark-owned span (a no-op when tracing is off). *)
let span name f = Tracer.with_span ~cat:"bench" name f

(* Start recording spans on the wall clock, from an empty sink. *)
let start_tracing () =
  Tracer.set_clock wall_clock_ns;
  Tracer.clear ();
  Tracer.enable ()

(* Move the recorded spans into [tbl] and empty the sink. *)
let drain_spans tbl =
  add_spans tbl (Tracer.spans ());
  Tracer.clear ()

(* ---- solver counters ----------------------------------------------------- *)

let counter snap name = float (Option.value ~default:0 (Metrics.find_counter snap name))

(* ---- reports --------------------------------------------------------------- *)

(* The end-to-end metrics, with unit and better direction, as listed in
   BENCHMARK.json. *)
let end_to_end_names =
  [
    ("setup_s", "s", "lower");
    ("ops_per_s", "1/s", "higher");
    ("latency_p50_ms", "ms", "lower");
    ("latency_tail_ms", "ms", "lower");
    ("max_rps_at_slo", "1/s", "higher");
    ("ok_share", "share", "higher");
    ("ratio_vs_lp", "ratio", "lower");
    ("peak_rss_mb", "MB", "lower");
  ]

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** names of Layers.names; absent ones read 0 *)
  detail : (string * Json.t) list;
}

(* Median of [reps] timed runs of a set-up function [f], which returns
   its result and a teardown; the last result is kept.  Set-up is
   repeated so that one slow start does not move the reported
   [setup_s]; each starts from a collected heap.  Each run's wall time
   is scaled by the host speed that [sample] (a reference timing on the
   wall clock) measures before and after it; the unscaled times are
   returned as well. *)
let timed_setup ~reps ~sample f =
  let times = Array.make reps 0. and scaled = Array.make reps 0. in
  let last = ref None in
  let before = ref (sample ()) in
  for i = 0 to reps - 1 do
    (match !last with Some (_, teardown) -> teardown () | None -> ());
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    times.(i) <- now () -. t0;
    let after = sample () in
    scaled.(i) <- times.(i) *. Speed.factor !before after;
    before := after;
    last := Some v
  done;
  match !last with Some (v, _) -> (v, median scaled, times) | None -> assert false

(* Combined identity of a workload's generated inputs. *)
let combined_digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* ---- timed rounds ---------------------------------------------------------- *)

(* What a timed phase took, on the wall clock and on the process CPU
   clock. *)
type elapsed = { wall_s : float; cpu_s : float }

(* Run [round k] for k = 0, 1, ... until [seconds] have passed and at
   least [min_rounds] rounds and [min_ops] operations ([ops] counts a
   round's) are done, calling [on_round k] after each.  Returns the
   rounds' results in order and the elapsed time. *)
let timed_rounds ~round ~ops ~seconds ~min_rounds ~min_ops ~on_round =
  let t0 = now () and c0 = cpu_now () in
  let rec go k n acc =
    if k >= min_rounds && n >= min_ops && now () -. t0 >= seconds then
      (List.rev acc, { wall_s = now () -. t0; cpu_s = cpu_now () -. c0 })
    else begin
      let r = round k in
      on_round k;
      go (k + 1) (n + ops r) (r :: acc)
    end
  in
  go 0 0 []

(* The timing metrics of a closed-loop phase whose operations each took
   [cpu] seconds of CPU and [wall] seconds of wall clock in host-speed
   period [period], once [Speed.finish] has closed it: throughput and the
   median and [tail_pct] percentile of the operation times, scaled by
   host speed, plus the unscaled figures on both clocks for the detail
   line. *)
type closed_loop = {
  ops_per_s : float;
  p50_ms : float;
  tail_ms : float;
  timing_detail : (string * Json.t) list;
}

let closed_loop ~tail_pct ~(elapsed : elapsed) ops =
  let factors, samples = Speed.finish () in
  let cpu = Array.of_list (List.map (fun (c, _, _) -> c) ops) in
  let wall = Array.of_list (List.map (fun (_, w, _) -> w) ops) in
  let scaled = Array.of_list (List.map (fun (c, _, p) -> c *. factors.(p)) ops) in
  let n = float (List.length ops) and sum = Array.fold_left ( +. ) 0. in
  let figures xs total =
    Json.Obj
      [
        ("ops_per_s", Json.Float (n /. total));
        ("latency_p50_ms", Json.Float (median xs *. 1e3));
        ("latency_tail_ms", Json.Float (percentile xs tail_pct *. 1e3));
      ]
  in
  {
    ops_per_s = n /. sum scaled;
    p50_ms = median scaled *. 1e3;
    tail_ms = percentile scaled tail_pct *. 1e3;
    timing_detail =
      [
        ("elapsed_s", Json.Float elapsed.wall_s);
        ("cpu_s", Json.Float elapsed.cpu_s);
        ("host_speed", Speed.summary samples);
        ("unscaled", Json.Obj [ ("cpu", figures cpu (sum cpu)); ("wall", figures wall elapsed.wall_s) ]);
      ];
  }

type traced = {
  spans : (string, span_agg) Hashtbl.t;
  round0 : Metrics.snapshot;  (** counters after the first round *)
  whole : Metrics.snapshot;  (** counters after the phase *)
  minor_words0 : float;  (** allocated in the first round *)
  major_collections0 : int;  (** major collections in the first round *)
}

(* Run [phase ~on_round] (a [timed_rounds] call) with the tracer on and
   the solver counters zeroed; the first round's counters and GC work are
   kept apart, since that round is the same work in every run. *)
let traced_phase phase =
  let spans = new_spans () in
  Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let first = ref None in
  start_tracing ();
  let r =
    phase ~on_round:(fun k ->
        drain_spans spans;
        if k = 0 then first := Some (Metrics.snapshot (), Gc.quick_stat ()))
  in
  drain_spans spans;
  Tracer.disable ();
  let round0, gc1 = Option.get !first in
  ( r,
    {
      spans;
      round0;
      whole = Metrics.snapshot ();
      minor_words0 = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections0 = gc1.Gc.major_collections - gc0.Gc.major_collections;
    } )
