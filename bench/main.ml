(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index), the extension experiments and their
   BENCH_*.json files, and runs Bechamel micro-benchmarks of the core
   algorithms.  [sections] and [options] are the whole command line: each
   section flag runs its section, no section flag runs them all in the
   table's order, and an unknown argument prints the usage and exits 2. *)

open Report

let fast = ref false and csv = ref false and selected = ref []

let domains = ref None and selection_timeout = ref 120. and clients = ref None and corpus_dir = ref None

let sections =
  [
    ("--table 1", "paper Table 1: master and trigger truth tables", Paper.print_table1);
    ("--table 2", "paper Table 2: candidate trigger functions", Paper.print_table2);
    ("--table 3", "paper Table 3 (--csv: also as CSV)", fun () -> Paper.print_table3 ~csv:!csv ());
    ( "--engine",
      "parallel suite scaling (BENCH_engine.json; exits 1 on row divergence or no speedup)",
      fun () -> Engine_perf.print_engine ?domains:!domains () );
    ( "--perf",
      "analytic throughput vs streaming simulation (BENCH_perf.json)",
      fun () -> Engine_perf.print_perf ~selection_timeout:!selection_timeout () );
    ( "--serve",
      "ee_synthd latency, load test and import layers (BENCH_serve.json)",
      fun () ->
        let default = if !fast then 128 else 256 in
        Serve_chaos.print_serve ~clients:(Option.value !clients ~default) () );
    ("--chaos", "ee_fleet under SIGKILL, tier corruption (BENCH_serve.json)", Serve_chaos.print_chaos);
    ("--faults", "fault campaigns, ITC99 EE netlists (BENCH_faults.json)", Faults_corpus.print_faults);
    ("--sweep", "ablation A: cost-threshold sweep", Paper.print_sweep);
    ("--ablation-cost", "ablation B: Eq. 1 weighting vs coverage only", Paper.print_ablation_cost);
    ("--stream", "streaming throughput, EE vs no-EE", Paper.print_stream);
    ("--feedback", "feedback minimization (exits 1 unless live and safe)", Paper.print_feedback);
    ("--analysis", "analytical delay prediction vs simulation", Paper.print_analysis);
    ("--budget", "area-budgeted EE selection", Paper.print_budget);
    ("--jitter", "Eq. 1 under per-gate delay variation", Paper.print_jitter);
    ("--ring", "self-timed ring canopy", Paper.print_ring);
    ("--distribution", "settle-time distributions", Paper.print_distribution);
    ("--families", "circuit families vs EE benefit", Paper.print_families);
    ("--mappers", "mapping style vs EE benefit", Paper.print_mappers);
    ("--sharing", "trigger sharing", Paper.print_sharing);
    ("--ncl", "PL (+EE) vs NULL Convention Logic", Paper.print_ncl);
    ( "--corpus",
      "frontend sweep and ITC99 delay-vs-techmap gate (BENCH_corpus.json)",
      fun () -> Faults_corpus.print_corpus ?dir:!corpus_dir ~fast:!fast () );
    ( "--search",
      "trigger extractor vs the minterm scan, shared triggers (BENCH_search.json)",
      fun () -> Search.print_search ~fast:!fast () );
    ("--micro", "Bechamel micro-benchmarks", Micro.micro);
  ]

(* The flag with its argument's name, a doc line, and what the argument
   sets; a bad argument raises [Failure]. *)
let options =
  let positive zero conv what flag s =
    match conv s with
    | Some v when v > zero -> v
    | _ -> failwith (Printf.sprintf "%s needs a positive %s, got %S" flag what s)
  in
  let int flag s = positive 0 int_of_string_opt "integer" flag s in
  [
    ("--fast", "fewer vectors (CI-friendly)", fun _ -> fast := true; vectors := 25);
    ("--csv", "also print Table 3 as CSV", fun _ -> csv := true);
    ( "--domains N",
      "--engine parallel width (default max 2 cores)",
      fun s -> domains := Some (int "--domains" s) );
    ( "--selection-timeout S",
      "--perf per-benchmark selection budget (default 120 s)",
      fun s ->
        selection_timeout := positive 0. float_of_string_opt "number of seconds" "--selection-timeout" s
    );
    ( "--clients N",
      "--serve load clients (default 256, 128 with --fast)",
      fun s -> clients := Some (int "--clients" s) );
    ( "--corpus-dir D",
      "run --corpus, also sweeping the .blif/.aag/.aig files in D",
      fun d ->
        corpus_dir := Some d;
        selected := "--corpus" :: !selected );
  ]

let usage_exit msg =
  prerr_endline msg;
  prerr_endline "usage: main.exe [SECTION]... [OPTION]...  (no section: all of them)";
  let doc (flag, doc, _) = Printf.eprintf "  %-23s %s\n" flag doc in
  List.iter doc sections;
  List.iter doc options;
  exit 2

let () =
  let find flag table = List.find_opt (fun (f, _, _) -> f = flag) table in
  let rec parse = function
    | [] -> ()
    | a :: b :: rest when find (a ^ " " ^ b) sections <> None -> parse ((a ^ " " ^ b) :: rest)
    | a :: rest when find a sections <> None ->
        selected := a :: !selected;
        parse rest
    | a :: rest -> (
        let takes_value (f, _, _) = String.starts_with ~prefix:(a ^ " ") f in
        match (find a options, List.find_opt takes_value options, rest) with
        | Some (_, _, set), _, _ ->
            set "";
            parse rest
        | None, Some (_, _, set), v :: rest ->
            (try set v with Failure msg -> usage_exit msg);
            parse rest
        | None, Some _, [] -> usage_exit (a ^ " needs an argument")
        | None, None, _ -> usage_exit (Printf.sprintf "unknown argument %S" a))
  in
  parse (List.tl (Array.to_list Sys.argv));
  List.iter (fun (flag, _, run) -> if !selected = [] || List.mem flag !selected then run ())
    sections
