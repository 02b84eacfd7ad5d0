(* The repository benchmark.

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Run from the repository root, where BENCHMARK.json names the workloads
   and metrics.  Prints the workload's statistics digest, every metric by
   name with its unit and sample count, and as its last line one JSON
   object: the end-to-end metrics with [--trace 0], the per-layer metrics
   with [--trace 1].  Exits 1 when an oracle or the harness's own
   self-test fails. *)

module Json = Ee_export.Json

let workloads =
  [
    ("table3_sim", Table3.run);
    ("mcr_plan", Mcr_plan.run);
    ("fault_campaign", Fault_campaign.run);
    ("serve_mix", Serve_mix.run);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* The metric names and units that BENCHMARK.json declares, per section. *)
let declared section =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  let json = match Json.parse text with Ok j -> j | Error e -> die "BENCHMARK.json: %s" e in
  let field k j = Option.bind (Json.member k j) Json.to_string_opt in
  match Option.bind (Json.member section json) Json.to_list with
  | None -> die "BENCHMARK.json: no %s list" section
  | Some l ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> die "BENCHMARK.json: %s entry without name and unit" section)
        l

let () =
  let workload = ref "" and seed = ref 2002 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 2002)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> die "unexpected argument %S" a)
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  (match Metrics.self_test () @ Serve_mix.self_test () with
  | [] -> ()
  | fails ->
      List.iter (fun f -> Printf.printf "SELF-TEST FAIL: %s\n" f) fails;
      exit 1);
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  let section = if !trace = 1 then "per_layer" else "end_to_end" in
  let names = declared section in
  let out_dir = ".perfbench" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let cfg = { Harness.seed = !seed; seconds = !seconds; trace = !trace = 1; out_dir } in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through [at_exit] on SIGTERM, so a spawned daemon is reaped. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 1));
  let r =
    try run cfg with
    | (Failure _ | Unix.Unix_error _ | Sys_error _ | End_of_file | Ee_serve.Client.Timeout) as e
      ->
        Printf.printf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
        exit 1
  in
  if cfg.Harness.trace then Span.write (Filename.concat out_dir (!workload ^ ".spans.json"));
  List.iter print_endline r.Harness.digest;
  Printf.printf "digest %s %s\n" !workload (Harness.digest_hash r.Harness.digest);
  let produced = if cfg.Harness.trace then r.Harness.per_layer else r.Harness.end_to_end in
  (* Layers a workload does not exercise read 0 in its traced run. *)
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.Metrics.name = name) produced with
        | Some m when m.Metrics.unit_ = unit_ -> m
        | Some m -> die "metric %s: unit %s, BENCHMARK.json says %s" name m.Metrics.unit_ unit_
        | None when cfg.Harness.trace -> Metrics.metric ~samples:0 name unit_ 0.
        | None -> die "workload %s does not produce %s" !workload name)
      names
  in
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Metrics.name names) then
        die "metric %s is not declared in BENCHMARK.json" m.Metrics.name)
    produced;
  List.iter
    (fun m ->
      Printf.printf "metric %-28s %14.6g %-8s n=%d\n" m.Metrics.name m.Metrics.value m.Metrics.unit_
        m.Metrics.samples)
    metrics;
  let t = r.Harness.tally in
  Printf.printf "failed_ratio %.6f (%d of %d operations and oracle checks)\n"
    (Metrics.failed_ratio t) t.Metrics.failed t.Metrics.attempted;
  let correct = t.Metrics.failed = 0 && t.Metrics.attempted > 0 in
  print_endline
    (Metrics.result_line ~correct ~attempted:t.Metrics.attempted ~failed:t.Metrics.failed metrics);
  exit (if correct then 0 else 1)
