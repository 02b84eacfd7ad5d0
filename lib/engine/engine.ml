module Pipeline = Ee_report.Pipeline
module Tables = Ee_report.Tables
module Itc99 = Ee_bench_circuits.Itc99

type selection = Eq1 | Mcr | Search

type spec = {
  threshold : float;
  coverage_only : bool;
  min_coverage : float;
  share_triggers : bool;
  vectors : int;
  seed : int;
  gate_delay : float;
  ee_overhead : float;
  selection : selection;
  lut_k : int;
}

let default_spec =
  {
    threshold = 0.;
    coverage_only = false;
    min_coverage = 0.;
    share_triggers = false;
    vectors = 100;
    seed = 2002;
    gate_delay = Ee_sim.Sim.default_config.Ee_sim.Sim.gate_delay;
    ee_overhead = Ee_sim.Sim.default_config.Ee_sim.Sim.ee_overhead;
    selection = Eq1;
    lut_k = 4;
  }

let selection_to_string = function Eq1 -> "eq1" | Mcr -> "mcr" | Search -> "search"

let selection_of_string = function
  | "eq1" -> Some Eq1
  | "mcr" -> Some Mcr
  | "search" -> Some Search
  | _ -> None

(* Exhaustive over the record so a new knob cannot be forgotten silently:
   the pattern match below fails to compile if a field is added. *)
let spec_fingerprint spec =
  let {
    threshold;
    coverage_only;
    min_coverage;
    share_triggers;
    vectors;
    seed;
    gate_delay;
    ee_overhead;
    selection;
    lut_k;
  } =
    spec
  in
  Printf.sprintf
    "spec-v2;threshold=%h;coverage_only=%b;min_coverage=%h;share_triggers=%b;vectors=%d;seed=%d;gate_delay=%h;ee_overhead=%h;selection=%s;lut_k=%d"
    threshold coverage_only min_coverage share_triggers vectors seed gate_delay
    ee_overhead (selection_to_string selection) lut_k

let with_threshold threshold spec = { spec with threshold }
let with_coverage_only coverage_only spec = { spec with coverage_only }
let with_min_coverage min_coverage spec = { spec with min_coverage }
let with_share_triggers share_triggers spec = { spec with share_triggers }
let with_vectors vectors spec = { spec with vectors }
let with_seed seed spec = { spec with seed }
let with_gate_delay gate_delay spec = { spec with gate_delay }
let with_ee_overhead ee_overhead spec = { spec with ee_overhead }
let with_selection selection spec = { spec with selection }

let with_lut_k lut_k spec =
  if lut_k < 4 || lut_k > 8 then invalid_arg "Engine.with_lut_k: lut_k must be in 4..8";
  { spec with lut_k }

let synth_options spec =
  {
    Ee_core.Synth.threshold = spec.threshold;
    weighting =
      (if spec.coverage_only then Ee_core.Cost.Coverage_only
       else Ee_core.Cost.Arrival_weighted);
    min_coverage = spec.min_coverage;
    share_triggers = spec.share_triggers;
  }

let sim_config spec =
  { Ee_sim.Sim.gate_delay = spec.gate_delay; ee_overhead = spec.ee_overhead }

let mcr_options spec =
  {
    Ee_core.Mcr_select.default_options with
    Ee_core.Mcr_select.min_coverage = spec.min_coverage;
    gate_delay = spec.gate_delay;
    ee_overhead = spec.ee_overhead;
  }

let search_options spec =
  {
    Ee_search.Search_select.default_options with
    Ee_search.Search_select.base = mcr_options spec;
  }

let benchmarks = Itc99.all

let find_benchmark id =
  match List.find_opt (fun b -> b.Itc99.id = id) Itc99.all with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "unknown benchmark %S (try 'ee_synth list')" id)

type result = {
  artifact : Pipeline.artifact;
  row : Tables.row;
}

let stage_names = Pipeline.stage_names @ [ "sim" ]

let plan ?memo spec pl =
  match spec.selection with
  | Eq1 -> Ee_core.Synth.run ~options:(synth_options spec) ?memo pl
  | Mcr -> Ee_core.Mcr_select.run ~options:(mcr_options spec) ?memo pl
  | Search ->
      let pl', r = Ee_search.Search_select.run ~options:(search_options spec) ?memo pl in
      (pl', r.Ee_search.Search_select.synth)

let run ?(spec = default_spec) ?trace ?memo (b : Itc99.benchmark) =
  let instrument =
    match trace with
    | None -> Pipeline.no_instrument
    | Some t -> { Pipeline.wrap = (fun stage f -> Trace.with_span t ~bench:b.Itc99.id stage f) }
  in
  let artifact = Pipeline.build_staged ~plan:(plan ?memo spec) ~instrument b in
  let row =
    instrument.Pipeline.wrap "sim" (fun () ->
        Tables.row_of_artifact ~vectors:spec.vectors ~seed:spec.seed ~config:(sim_config spec)
          artifact)
  in
  { artifact; row }

type failure = {
  failed_bench : string;
  reason : string;
  timed_out : bool;
}

let failure_to_string f =
  Printf.sprintf "%s: %s%s" f.failed_bench
    (if f.timed_out then "deadline exceeded — " else "")
    f.reason

type suite = {
  results : (result, failure) Stdlib.result list;
  table3 : Tables.table3;
  domains : int;
  wall_clock_s : float;
}

let table3_of_rows rows =
  let n = float_of_int (max 1 (List.length rows)) in
  {
    Tables.rows;
    avg_area_increase =
      List.fold_left (fun acc r -> acc +. r.Tables.area_increase) 0. rows /. n;
    avg_delay_decrease =
      List.fold_left (fun acc r -> acc +. r.Tables.delay_decrease) 0. rows /. n;
  }

let ok_results suite = List.filter_map Result.to_option suite.results

let failures suite =
  List.filter_map (function Ok _ -> None | Error f -> Some f) suite.results

module Memo = Ee_core.Trigger.Memo

let run_suite ?(spec = default_spec) ?trace ?(domains = 1) ?chunk ?deadline_s ?memo
    ?(benchmarks = benchmarks) () =
  (match deadline_s with
  | Some d when d <= 0. -> invalid_arg "Engine.run_suite: deadline_s must be positive"
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  (* Memo lifecycle: every worker domain gets its own fresh candidate
     context (lock-free hot path), optionally warm-started from [memo];
     at batch end each worker folds what it learned back into [memo].
     The merge mutex is batch-boundary only — never on the hot path. *)
  let merge_lock = Mutex.create () in
  let worker_init _ =
    let local = Memo.create ~size:1024 () in
    (match memo with
    | Some shared -> Mutex.protect merge_lock (fun () -> Memo.merge ~into:local shared)
    | None -> ());
    Memo.install_domain_default local
  in
  let worker_teardown _ =
    match memo with
    | Some shared ->
        let local = Memo.domain_default () in
        Mutex.protect merge_lock (fun () -> Memo.merge ~into:shared local)
    | None -> ()
  in
  (* With a deadline the tasks must run off the awaiting domain, otherwise a
     hung benchmark hangs [submit] itself before any await can give up. *)
  let pool =
    Ee_util.Pool.create ~force_spawn:(deadline_s <> None) ~domains ~worker_init
      ~worker_teardown ()
  in
  let results =
    match deadline_s with
    | None ->
        (* Coarse-grained scheduling: O(domains) slice tasks, each row
           crash-isolated inside the slice so a raising benchmark degrades
           to its own Error row without poisoning the rest of its slice. *)
        let run_one b =
          match run ~spec ?trace ~memo:(Memo.domain_default ()) b with
          | r -> Ok r
          | exception e ->
              Error
                {
                  failed_bench = b.Itc99.id;
                  reason = Printexc.to_string e;
                  timed_out = false;
                }
        in
        let results = Ee_util.Pool.map_chunked ?chunk pool run_one benchmarks in
        Ee_util.Pool.shutdown pool;
        results
    | Some timeout_s ->
        (* Per-benchmark tasks: a deadline needs the await to give up on a
           single hung row, which chunked slices cannot offer. *)
        let tasks =
          List.map
            (fun b ->
              ( b,
                Ee_util.Pool.submit pool (fun () ->
                    run ~spec ?trace ~memo:(Memo.domain_default ()) b) ))
            benchmarks
        in
        let hung = ref false in
        let results =
          List.map
            (fun (b, task) ->
              let fail ~timed_out reason =
                Error { failed_bench = b.Itc99.id; reason; timed_out }
              in
              match Ee_util.Pool.await_timeout task ~timeout_s with
              | Ok r -> Ok r
              | Error (`Failed (e, _)) -> fail ~timed_out:false (Printexc.to_string e)
              | Error `Timed_out ->
                  hung := true;
                  fail ~timed_out:true
                    (Printf.sprintf "no result within %gs deadline" timeout_s))
            tasks
        in
        (* A hung worker would block [shutdown]'s join forever. *)
        if !hung then Ee_util.Pool.abandon pool else Ee_util.Pool.shutdown pool;
        results
  in
  let wall_clock_s = Unix.gettimeofday () -. t0 in
  let suite =
    { results; table3 = table3_of_rows []; domains = max 1 (min 64 domains); wall_clock_s }
  in
  { suite with table3 = table3_of_rows (List.map (fun r -> r.row) (ok_results suite)) }
