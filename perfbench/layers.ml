(* The per-layer metrics of the traced run, with unit and better
   direction, as listed in BENCHMARK.json.  Every workload reports every
   name below (the benchmark contract wants the same metric set from each
   run); a layer a workload bypasses reads 0.  What each metric should
   move, and on which workload, is written down in layers.json.

   Conventions: solver counts (pivots, probes, segments, resolves, ...)
   are totals over the traced phase's first round, the same work in
   every run, so they repeat exactly for a seed; "busy" and "self" times
   are per operation of the traced phase. *)

open Common

let names =
  [
    ("io.parse_us", "us", "lower");
    ("io.digest_us", "us", "lower");
    ("search.probes", "1/op", "lower");
    ("search.busy_s", "s", "lower");
    ("lp.solves", "count", "lower");
    ("lp.pivots", "count", "lower");
    ("lp.degenerate_share", "share", "lower");
    ("lp.busy_s", "s", "lower");
    ("lp.us_per_pivot", "us", "lower");
    ("lp.share", "share", "lower");
    ("lp.warm.hit_ratio", "ratio", "higher");
    ("lp.warm.repairs", "count", "lower");
    ("gc.minor_mwords_per_op", "Mwords", "lower");
    ("gc.major_collections", "count", "lower");
    ("round.busy_ms", "ms", "lower");
    ("round.fractional_jobs", "count", "lower");
    ("round.greedy_fallback_ratio", "ratio", "lower");
    ("sched.busy_ms", "ms", "lower");
    ("sched.segments", "count", "lower");
    ("sched.migrations", "count", "lower");
    ("sched.preemptions", "count", "lower");
    ("check.busy_s", "s", "lower");
    ("check.share", "share", "lower");
    ("check.failures", "count", "lower");
    ("online.step_p50_ms", "ms", "lower");
    ("online.step_tail_ms", "ms", "lower");
    ("online.resolves", "count", "lower");
    ("online.adoption_ratio", "ratio", "higher");
    ("online.budget_blocked", "count", "lower");
    ("online.migrated_volume", "count", "lower");
    ("cache.hit_ratio", "ratio", "higher");
    ("cache.evictions", "count", "lower");
    ("admission.queue_p50_ms", "ms", "lower");
    ("admission.queue_p99_ms", "ms", "lower");
    ("admission.batch_size", "1/batch", "higher");
    ("admission.shed", "count", "lower");
    ("admission.deadline_miss", "count", "lower");
    ("engine.solve_p50_ms", "ms", "lower");
    ("engine.solve_p99_ms", "ms", "lower");
    ("render.ms", "ms", "lower");
    ("write.ms", "ms", "lower");
    ("frame.bytes_in", "B", "lower");
    ("frame.bytes_out", "B", "lower");
    ("service.share", "share", "lower");
    ("gen.lateness_ms", "ms", "lower");
    ("self.io_ms", "ms", "lower");
    ("self.pipeline_ms", "ms", "lower");
    ("self.search_ms", "ms", "lower");
    ("self.lp_ms", "ms", "lower");
    ("self.round_ms", "ms", "lower");
    ("self.sched_ms", "ms", "lower");
    ("self.check_ms", "ms", "lower");
    ("self.online_ms", "ms", "lower");
    ("self.service_ms", "ms", "lower");
    ("self.bench_ms", "ms", "lower");
    ("trace.overhead_share", "share", "lower");
  ]

(* Span names of the solver pipeline, grouped by layer. *)
let pipeline_spans = [ "pipeline.solve" ]
let search_spans = [ "search.probe" ]
let lp_spans = [ "lp.feasible"; "simplex.solve" ]

(* LP time: the LP build inside lp.feasible plus every simplex run, also
   those the checker starts without going through lp.feasible. *)
let lp_time spans = (span_get spans "lp.feasible").self_s +. incl_of spans "simplex.solve"

(* Metrics of the in-process solver layers, shared by batch-solve and
   online-replay: [t] is the traced phase, of [nops] operations and
   [op_s] seconds of operation time, whose first round has [round_ops]
   operations. *)
let solver (t : traced) ~round_ops ~nops ~op_s =
  let spans = t.spans in
  let c0 = counter t.round0 and c = counter t.whole in
  let per_op x = x /. float nops in
  let ms x = per_op x *. 1e3 in
  let warm_hits = c0 "lp.warm_start.hits" and warm_misses = c0 "lp.warm_start.misses" in
  [
    ("search.probes", c0 "search.probes" /. round_ops);
    ("search.busy_s", per_op (incl_of spans "search.probe"));
    ("lp.solves", c0 "simplex.solves");
    ("lp.pivots", c0 "simplex.pivots");
    ("lp.degenerate_share", ratio (c0 "simplex.degenerate_pivots") (c0 "simplex.pivots"));
    ("lp.busy_s", per_op (lp_time spans));
    ("lp.us_per_pivot", ratio (incl_of spans "simplex.solve") (c "simplex.pivots") *. 1e6);
    ("lp.share", ratio (lp_time spans) op_s);
    ("lp.warm.hit_ratio", ratio warm_hits (warm_hits +. warm_misses));
    ("lp.warm.repairs", c0 "lp.warm_start.repairs");
    ("gc.minor_mwords_per_op", t.minor_words0 /. round_ops /. 1e6);
    ("gc.major_collections", float t.major_collections0);
    ("round.busy_ms", ms (incl_of spans "round.lst"));
    ("round.fractional_jobs", c0 "lst.fractional_jobs");
    ("round.greedy_fallback_ratio", ratio (c0 "lst.greedy_fallbacks") (c0 "lst.fractional_jobs"));
    ("sched.busy_ms", ms (incl_of spans "sched.alg23"));
    ("sched.segments", c0 "sched.segments");
    ("sched.migrations", c0 "sched.migrations");
    ("sched.preemptions", c0 "sched.preemptions");
    ("self.pipeline_ms", ms (self_of spans pipeline_spans));
    ("self.search_ms", ms (self_of spans search_spans));
    ("self.lp_ms", ms (self_of spans lp_spans));
    ("self.round_ms", ms (self_of spans [ "round.lst" ]));
    ("self.sched_ms", ms (self_of spans [ "sched.alg23"; "pushdown.sweep" ]));
  ]
