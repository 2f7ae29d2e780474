(* Fault-injection harness (robustness tentpole).

   Three attack surfaces:
   - the parser: corrupted/malformed text must yield [Error], never raise;
   - the validators: structural mutations violating laminarity or
     monotonicity must be caught;
   - the solver pipeline: a budget exhaustion injected on the exact path
     must degrade to a re-certified 2-approximate schedule ([`Fallback])
     or surface as a typed [Budget_exhausted] error ([`Fail]); one
     injected on the LP path, the last one, always surfaces.

   Everything is deterministic: the fuzz streams are SplitMix64 with
   fixed seeds, so a failure here reproduces exactly. *)

open Hs_model
open Hs_core
open Hs_workloads

(* Valid serialised instances used as fuzz bases, spanning all topology
   families of {!Test_util.random_instance}. *)
let base_texts =
  List.init 12 (fun i -> Instance_io.to_string (Test_util.random_instance (100 + i)))

let base_instances = List.init 12 (fun i -> Test_util.random_instance (200 + i))

(* ---- parser fuzzing -------------------------------------------------- *)

let test_parser_never_raises () =
  let rng = Rng.create 0xfa017 in
  let r = Mutators.fuzz_of_string rng ~iters:500 ~base:base_texts in
  Alcotest.(check int) "all inputs fed" 500 r.Mutators.total;
  match r.Mutators.escaped with
  | [] -> ()
  | (input, exn) :: _ ->
      Alcotest.failf "of_string raised %s on: %s" exn (String.escaped input)

let test_malformed_corpus_rejected () =
  List.iter
    (fun text ->
      match (try Ok (Instance_io.of_string text) with exn -> Error exn) with
      | Ok (Error _) -> ()
      | Ok (Ok _) -> Alcotest.failf "corpus input accepted: %s" (String.escaped text)
      | Error exn ->
          Alcotest.failf "of_string raised %s on corpus input: %s"
            (Printexc.to_string exn) (String.escaped text))
    Mutators.malformed_corpus

(* ---- validator fuzzing ----------------------------------------------- *)

let test_validators_catch_mutations () =
  let rng = Rng.create 0xfa018 in
  let r = Mutators.fuzz_validators rng ~iters:200 base_instances in
  Alcotest.(check int) "all mutations applied" 200 r.Mutators.total;
  (match r.Mutators.escaped with
  | [] -> ()
  | (label, exn) :: _ -> Alcotest.failf "validator raised %s on %s mutation" exn label);
  Alcotest.(check int) "no mutation slipped through" 0 r.Mutators.accepted

(* ---- pipeline fault injection ---------------------------------------- *)

(* A fixed mid-size instance: large enough that branch and bound needs
   many nodes, small enough that the LP path is instant. *)
let pipeline_instance =
  let rng = Rng.create 42 in
  let lam = Hs_laminar.Topology.clustered ~m:6 ~clusters:3 in
  Generators.hierarchical rng ~lam ~n:12 ~base:(1, 8) ~heterogeneity:1.8 ~overhead:0.3 ()

let check_valid_2approx ~what (o : Approx.robust_outcome) =
  (match Schedule.validate o.Approx.r_instance o.Approx.r_assignment o.Approx.r_schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: schedule invalid: %s" what e);
  if o.Approx.r_makespan > 2 * o.Approx.r_lower_bound then
    Alcotest.failf "%s: makespan %d exceeds 2x lower bound %d" what o.Approx.r_makespan
      o.Approx.r_lower_bound

(* The LP path is the last one, so a fault injected into any of its
   stages surfaces exactly like a real LP budget exhaustion: a typed
   [Budget_exhausted] for that same stage, exit code 4. *)
let test_inject_lp_stages () =
  List.iter
    (fun stage ->
      let what = "inject " ^ Hs_error.stage_name stage in
      match Approx.solve_robust ~inject:stage pipeline_instance with
      | Error (Hs_error.Budget_exhausted { stage = s; detail } as e) ->
          Alcotest.(check string) (what ^ ": stage") (Hs_error.stage_name stage)
            (Hs_error.stage_name s);
          Alcotest.(check string) (what ^ ": detail") "injected fault" detail;
          Alcotest.(check int) (what ^ ": exit code") 4 (Hs_error.exit_code e)
      | Error e -> Alcotest.failf "%s: wrong error: %s" what (Hs_error.to_string e)
      | Ok _ -> Alcotest.failf "%s: the injected fault was absorbed" what)
    [ Hs_error.Search; Hs_error.Lp; Hs_error.Rounding ]

(* With a node budget configured the exact path runs first; injecting a
   fault there must degrade to the LP 2-approximation. *)
let test_inject_exact_stages () =
  let budget = Budget.v ~bb_nodes:10_000_000 () in
  List.iter
    (fun stage ->
      let what = "inject " ^ Hs_error.stage_name stage in
      match Approx.solve_robust ~budget ~inject:stage pipeline_instance with
      | Error e -> Alcotest.failf "%s: no fallback succeeded: %s" what (Hs_error.to_string e)
      | Ok o ->
          check_valid_2approx ~what o;
          (match o.Approx.r_provenance with
          | Approx.Lp_approx -> ()
          | Approx.Exact_optimal -> Alcotest.failf "%s: expected the LP fallback" what);
          match o.Approx.r_fallbacks with
          | [ Hs_error.Budget_exhausted { stage = s; _ } ] when s = stage -> ()
          | _ -> Alcotest.failf "%s: expected exactly one %s exhaustion record" what
                   (Hs_error.stage_name stage))
    [ Hs_error.Bb; Hs_error.Sched ]

(* A genuinely exhausted node budget (no injection) takes the same
   fallback; the outcome records why. *)
let test_real_node_exhaustion () =
  match Approx.solve_robust ~budget:(Budget.v ~bb_nodes:50 ()) pipeline_instance with
  | Error e -> Alcotest.failf "fallback failed: %s" (Hs_error.to_string e)
  | Ok o ->
      check_valid_2approx ~what:"node exhaustion" o;
      (match o.Approx.r_provenance with
      | Approx.Lp_approx -> ()
      | Approx.Exact_optimal -> Alcotest.fail "50 nodes cannot prove this instance");
      (match o.Approx.r_fallbacks with
      | [ Hs_error.Budget_exhausted { stage = Hs_error.Bb; _ } ] -> ()
      | _ -> Alcotest.fail "expected exactly one branch-and-bound exhaustion record")

(* Under [`Fail] the same exhaustion surfaces as the typed error with
   the documented exit code. *)
let test_fail_mode_surfaces_error () =
  (match
     Approx.solve_robust
       ~budget:(Budget.v ~bb_nodes:50 ())
       ~on_exhausted:`Fail pipeline_instance
   with
  | Error (Hs_error.Budget_exhausted _ as e) ->
      Alcotest.(check int) "exit code" 4 (Hs_error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Hs_error.to_string e)
  | Ok _ -> Alcotest.fail "tiny node budget must not succeed in fail mode");
  (* A pivot budget too small for any LP attempt exhausts the whole
     chain even in fallback mode: the meter is shared across attempts. *)
  match Approx.solve_robust ~budget:(Budget.v ~lp_pivots:3 ()) pipeline_instance with
  | Error (Hs_error.Budget_exhausted _ as e) ->
      Alcotest.(check int) "exit code" 4 (Hs_error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Hs_error.to_string e)
  | Ok _ -> Alcotest.fail "3 pivots must not solve this instance"

(* Sanity: with no budget and no injection the robust path agrees with
   the plain pipeline contract. *)
let test_unlimited_clean_path () =
  match Approx.solve_robust pipeline_instance with
  | Error e -> Alcotest.failf "clean run failed: %s" (Hs_error.to_string e)
  | Ok o ->
      check_valid_2approx ~what:"clean" o;
      Alcotest.(check bool) "no degradation" true (o.Approx.r_fallbacks = [])

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  ( "faults",
    [
      u "parser survives 500 corrupted inputs" test_parser_never_raises;
      u "malformed corpus rejected" test_malformed_corpus_rejected;
      u "validators catch structural mutations" test_validators_catch_mutations;
      u "inject: LP-path stages surface typed errors" test_inject_lp_stages;
      u "inject: exact-path stages degrade safely" test_inject_exact_stages;
      u "real node-budget exhaustion falls back" test_real_node_exhaustion;
      u "fail mode surfaces typed budget errors" test_fail_mode_surfaces_error;
      u "unlimited budget: clean path" test_unlimited_clean_path;
    ] )
