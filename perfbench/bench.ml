(* The repository benchmark.

   bench.exe --workload {batch-solve|online-replay|serve-mixed} --seed N
             --seconds S --trace {0|1} [--hsched PATH]

   Generates the workload's inputs from the seed, measures for about S
   seconds, checks every output, and prints a detail object followed,
   as the last line of standard output, by the result object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones
   of Layers.names, from a run whose second half records spans.  All
   solving uses one domain (jobs = 1). *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload {batch-solve|online-replay|serve-mixed} --seed N --seconds S \
     --trace {0|1} [--hsched PATH]";
  exit 2

let env () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("recommended_jobs", Json.Int (Hs_exec.recommended_jobs ()));
      ("jobs", Json.Int 1);
      ("lp_engine", Json.String (Hs_lp.Engine.to_string (Hs_lp.Engine.get ())));
      ("lp_presolve", Json.Bool (Hs_lp.Engine.presolve_enabled ()));
    ]

(* The metrics object of the result line, in the order of [names]; a
   name missing from [values] takes [default], or is an error. *)
let metrics_json ~names ?default values =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun (m, _, _) -> m = n) names) then failwith ("unknown metric " ^ n))
    values;
  Json.Obj
    (List.map
       (fun (n, u, _) ->
         let v =
           match (List.assoc_opt n values, default) with
           | Some v, _ -> v
           | None, Some d -> d
           | None, None -> failwith ("missing metric " ^ n)
         in
         if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not a finite number" n);
         (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       names)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let hsched = ref "_build/default/bin/hsched.exe" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--hsched" :: p :: rest -> hsched := p; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* A connection the daemon drops must fail the run with an error, and
     termination must go through [exit]: either way at_exit stops the
     daemon child. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let r =
    match !workload with
    | "batch-solve" -> Batch_solve.run ~seed ~seconds ~trace
    | "online-replay" -> Online_replay.run ~seed ~seconds ~trace
    | "serve-mixed" -> Serve_mixed.run ~hsched:!hsched ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let names, metrics =
    if trace then (Layers.names, metrics_json ~names:Layers.names ~default:0. r.per_layer)
    else (end_to_end_names, metrics_json ~names:end_to_end_names r.end_to_end)
  in
  let detail =
    Json.Obj
      ([
         ("workload", Json.String !workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Float seconds);
         ("trace", Json.Bool trace);
         ("env", env ());
         ("better", Json.Obj (List.map (fun (n, _, b) -> (n, Json.String b)) names));
       ]
      @ r.detail)
  in
  print_endline (Json.to_string (Json.Obj [ ("detail", detail) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics);
          ]))
