(* The parallel engine: pool semantics, sequential/parallel result
   identity, and trace output. *)

module Pool = Ee_util.Pool
module Engine = Ee_engine.Engine
module Trace = Ee_engine.Trace

exception Boom of int

let count_substring hay needle =
  let n = String.length needle in
  let rec go from acc =
    if from + n > String.length hay then acc
    else if String.sub hay from n = needle then go (from + 1) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let test_pool_map_order () =
  List.iter
    (fun domains ->
      let xs = List.init 40 Fun.id in
      let ys = Pool.run ~domains (fun x -> x * x) xs in
      Alcotest.(check (list int))
        (Printf.sprintf "map order, %d domains" domains)
        (List.map (fun x -> x * x) xs)
        ys)
    [ 1; 3; 4 ]

let test_pool_exception () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "exception propagates, %d domains" domains)
        (Boom 7)
        (fun () -> ignore (Pool.run ~domains (fun x -> if x = 7 then raise (Boom x) else x) [ 1; 7 ]));
      (* The pool survives a failing task: later submissions still work. *)
      Pool.with_pool ~domains (fun p ->
          let bad = Pool.submit p (fun () -> raise (Boom 1)) in
          let good = Pool.submit p (fun () -> 42) in
          Alcotest.(check int) "task after failure" 42 (Pool.await good);
          match Pool.await bad with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom 1 -> ()))
    [ 1; 4 ]

(* A pool of two domains is one worker and the caller.  [first] spins
   until [second] has run, so whichever task the worker takes, the other
   can only run on the awaiting caller.  A force-spawned pool never runs a
   task on the caller. *)
let test_pool_caller_runs_tasks () =
  let me = Domain.self () in
  Pool.with_pool ~domains:2 (fun p ->
      let released = Atomic.make false in
      let first =
        Pool.submit p (fun () ->
            while not (Atomic.get released) do
              Domain.cpu_relax ()
            done;
            Domain.self ())
      in
      let second =
        Pool.submit p (fun () ->
            Atomic.set released true;
            Domain.self ())
      in
      let d2 = Pool.await second in
      let d1 = Pool.await first in
      Alcotest.(check bool) "the two tasks ran on different domains" true (d1 <> d2);
      Alcotest.(check bool) "the awaiting caller ran one of them" true (d1 = me || d2 = me));
  let p = Pool.create ~force_spawn:true ~domains:1 () in
  let ran_on = Pool.await (Pool.submit p Domain.self) in
  Pool.shutdown p;
  Alcotest.(check bool) "a force-spawned pool never runs a task on the caller" true
    (ran_on <> me)

let test_pool_submit_after_shutdown () =
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.submit p (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_pool_try_await () =
  Pool.with_pool ~domains:2 (fun p ->
      let good = Pool.submit p (fun () -> 41) in
      let bad = Pool.submit p (fun () -> raise (Boom 3)) in
      Alcotest.(check int) "ok result" 41 (Result.get_ok (Pool.try_await good));
      match Pool.try_await bad with
      | Error (Boom 3, _) -> ()
      | Error _ -> Alcotest.fail "wrong exception captured"
      | Ok _ -> Alcotest.fail "expected captured failure")

let test_pool_await_timeout () =
  (* force_spawn: the hung task must run off the awaiting domain even with
     domains = 1, or submit itself would hang. *)
  let p = Pool.create ~force_spawn:true ~domains:1 () in
  let quick = Pool.submit p (fun () -> 7) in
  (match Pool.await_timeout quick ~timeout_s:5.0 with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "fast task should complete inside the deadline");
  let hung = Pool.submit p (fun () -> Unix.sleepf 30.0) in
  let t0 = Unix.gettimeofday () in
  (match Pool.await_timeout hung ~timeout_s:0.3 with
  | Error `Timed_out -> ()
  | _ -> Alcotest.fail "expected timeout");
  Alcotest.(check bool) "gave up promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  (* Abandon must not join the hung worker, and must refuse new work. *)
  Pool.abandon p;
  match Pool.submit p (fun () -> ()) with
  | _ -> Alcotest.fail "submit after abandon should raise"
  | exception Invalid_argument _ -> ()

(* try_await and abandon with several domains submitting into one pool at
   once: every submitter must get its own results back (no cross-talk),
   and an abandon racing live submitters must leave each task either
   completed or permanently pending — never delivered to the wrong
   caller. *)
let test_pool_concurrent_submitters () =
  Pool.with_pool ~domains:4 (fun p ->
      let submitters = 6 and per = 25 in
      let drivers =
        List.init submitters (fun s ->
            Domain.spawn (fun () ->
                List.init per (fun i ->
                    let v = (s * 1000) + i in
                    let t =
                      Pool.submit p (fun () -> if v mod 7 = 0 then raise (Boom v) else v)
                    in
                    (v, t))
                |> List.map (fun (v, t) ->
                       match Pool.try_await t with
                       | Ok got -> got = v && v mod 7 <> 0
                       | Error (Boom got, _) -> got = v && v mod 7 = 0
                       | Error _ -> false)))
      in
      let ok = List.for_all (List.for_all Fun.id) (List.map Domain.join drivers) in
      Alcotest.(check bool) "every submitter saw exactly its own results" true ok)

let test_pool_abandon_under_concurrent_submitters () =
  let p = Pool.create ~force_spawn:true ~domains:2 () in
  let hung = List.init 2 (fun _ -> Pool.submit p (fun () -> Unix.sleepf 30.)) in
  (* Submitters keep firing while the main domain abandons the pool;
     submissions racing the abandon may land or raise Invalid_argument,
     but nothing else, and none may block. *)
  let drivers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let accepted = ref 0 and refused = ref 0 in
            for _ = 1 to 50 do
              match Pool.submit p (fun () -> ()) with
              | _ -> incr accepted
              | exception Invalid_argument _ -> incr refused
            done;
            (!accepted, !refused)))
  in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  Pool.abandon p;
  Alcotest.(check bool) "abandon does not join hung workers" true
    (Unix.gettimeofday () -. t0 < 5.0);
  let totals = List.map Domain.join drivers in
  List.iter
    (fun (accepted, refused) ->
      Alcotest.(check int) "every racing submit either landed or was refused" 50
        (accepted + refused))
    totals;
  (* After abandon everything is refused. *)
  (match Pool.submit p (fun () -> ()) with
  | _ -> Alcotest.fail "submit after abandon should raise"
  | exception Invalid_argument _ -> ());
  (* The hung tasks were dropped or still running — but an await_timeout
     on them must come back, not hang. *)
  List.iter
    (fun t ->
      match Pool.await_timeout t ~timeout_s:0.2 with
      | Error `Timed_out | Error (`Failed _) -> ()
      | Ok _ -> Alcotest.fail "hung task cannot have completed")
    hung

let small_spec = Engine.default_spec |> Engine.with_vectors 5 |> Engine.with_seed 11

let fake_bench id build =
  { Ee_bench_circuits.Itc99.id; description = "synthetic failure-path benchmark"; build }

(* The one submission path in both pool modes: inline ([~domains:1]), a
   spawned worker ([~domains:1] with a deadline), and two domains (a
   worker beside the caller). *)
let test_suite_isolates_crash () =
  let crash = fake_bench "crash" (fun () -> failwith "synthetic crash") in
  let benchmarks =
    [ Ee_bench_circuits.Itc99.find "b01"; crash; Ee_bench_circuits.Itc99.find "b06" ]
  in
  List.iter
    (fun (label, domains, deadline_s) ->
      let s = Engine.run_suite ~spec:small_spec ~domains ?deadline_s ~benchmarks () in
      let check what = Printf.sprintf "%s (%s)" what label in
      Alcotest.(check int) (check "one row per benchmark") 3 (List.length s.Engine.results);
      Alcotest.(check int) (check "two benchmarks survive") 2
        (List.length (Engine.ok_results s));
      (match s.Engine.results with
      | [ Ok b01; Error f; Ok b06 ] ->
          Alcotest.(check (list string))
            (check "rows keep benchmark order")
            [ "b01"; "b06" ]
            [ b01.Engine.row.Ee_report.Tables.id; b06.Engine.row.Ee_report.Tables.id ];
          Alcotest.(check string) (check "failure names the benchmark") "crash"
            f.Engine.failed_bench;
          Alcotest.(check bool) (check "failure carries the exception text") true
            (count_substring f.Engine.reason "synthetic crash" = 1);
          Alcotest.(check bool) (check "a crash is not a timeout") false f.Engine.timed_out
      | _ -> Alcotest.fail (check "rows must stay in benchmark order with the crash isolated"));
      Alcotest.(check int) (check "table3 averages over surviving rows only") 2
        (List.length s.Engine.table3.Ee_report.Tables.rows))
    [ ("inline", 1, None); ("spawned worker", 1, Some 60.); ("2 domains", 2, None) ]

let test_suite_deadline_on_hung_benchmark () =
  let hang =
    fake_bench "hang"
      (fun () ->
        Unix.sleepf 60.0;
        assert false)
  in
  let benchmarks =
    [ Ee_bench_circuits.Itc99.find "b01"; Ee_bench_circuits.Itc99.find "b06"; hang ]
  in
  let t0 = Unix.gettimeofday () in
  let s = Engine.run_suite ~spec:small_spec ~domains:2 ~deadline_s:1.0 ~benchmarks () in
  Alcotest.(check bool) "suite returns despite the hung benchmark" true
    (Unix.gettimeofday () -. t0 < 30.0);
  Alcotest.(check int) "one row per benchmark" 3 (List.length s.Engine.results);
  (match Engine.failures s with
  | [ f ] ->
      Alcotest.(check string) "hung benchmark reported" "hang" f.Engine.failed_bench;
      Alcotest.(check bool) "flagged as a deadline overrun" true f.Engine.timed_out
  | fs -> Alcotest.fail (Printf.sprintf "expected exactly the hung row, got %d failures" (List.length fs)));
  Alcotest.(check int) "healthy benchmarks unaffected" 2 (List.length (Engine.ok_results s))

(* A non-positive deadline must be rejected loudly, not silently treated
   as "no deadline". *)
let test_suite_rejects_bad_deadline () =
  let benchmarks = [ Ee_bench_circuits.Itc99.find "b01" ] in
  List.iter
    (fun d ->
      match Engine.run_suite ~spec:small_spec ~deadline_s:d ~benchmarks () with
      | _ -> Alcotest.failf "deadline_s = %g should raise" d
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "message names deadline_s" true
            (count_substring msg "deadline_s" = 1))
    [ 0.; -1.; -0.001 ]

let test_spec_fingerprint () =
  let base = Engine.default_spec in
  Alcotest.(check string) "stable across calls" (Engine.spec_fingerprint base)
    (Engine.spec_fingerprint base);
  (* Every knob must perturb the fingerprint. *)
  let variants =
    [
      Engine.with_threshold 1. base;
      Engine.with_coverage_only true base;
      Engine.with_min_coverage 1. base;
      Engine.with_share_triggers true base;
      Engine.with_vectors 7 base;
      Engine.with_seed 7 base;
      Engine.with_gate_delay 2. base;
      Engine.with_ee_overhead 0.75 base;
      Engine.with_selection Engine.Mcr base;
    ]
  in
  let fps = List.map Engine.spec_fingerprint variants in
  let all = Engine.spec_fingerprint base :: fps in
  Alcotest.(check int) "all fingerprints distinct" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "selection names roundtrip" true
    (Engine.selection_of_string (Engine.selection_to_string Engine.Mcr) = Some Engine.Mcr
    && Engine.selection_of_string (Engine.selection_to_string Engine.Eq1) = Some Engine.Eq1
    && Engine.selection_of_string "nope" = None)

let test_suite_parallel_matches_sequential () =
  let s1 = Engine.run_suite ~spec:small_spec ~domains:1 () in
  let s4 = Engine.run_suite ~spec:small_spec ~domains:4 () in
  Alcotest.(check int) "15 benchmarks" 15 (List.length s1.Engine.results);
  Alcotest.(check bool) "table3 records identical" true (s1.Engine.table3 = s4.Engine.table3);
  (* Byte-identical rendered rows, not just structural equality. *)
  let render s = Ee_util.Table.to_csv (Ee_report.Tables.table3_to_table s.Engine.table3) in
  Alcotest.(check string) "rendered Table 3 identical" (render s1) (render s4)

let test_run_matches_legacy_pipeline () =
  let b = Ee_bench_circuits.Itc99.find "b04" in
  let spec = small_spec |> Engine.with_threshold 50. in
  let r = Engine.run ~spec b in
  let legacy =
    Ee_report.Pipeline.build ~options:(Engine.synth_options spec) b
  in
  let legacy_row =
    Ee_report.Tables.row_of_artifact ~vectors:5 ~seed:11 ~config:(Engine.sim_config spec) legacy
  in
  Alcotest.(check bool) "row matches legacy call chain" true (r.Engine.row = legacy_row)

let test_trace_spans () =
  let trace = Trace.create () in
  let b = Ee_bench_circuits.Itc99.find "b09" in
  ignore (Engine.run ~spec:small_spec ~trace b);
  let spans = Trace.spans trace in
  Alcotest.(check (list string))
    "one span per stage, in order" Engine.stage_names
    (List.map (fun s -> s.Trace.name) spans);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check string) "span bench id" "b09" s.Trace.bench;
      Alcotest.(check bool) "non-negative duration" true (s.Trace.dur_us >= 0.))
    spans;
  let stats = Trace.summary trace in
  Alcotest.(check int) "summary has one stat per stage" (List.length Engine.stage_names)
    (List.length stats)

(* A structural well-formedness check over the Chrome JSON: balanced
   braces/brackets outside strings, one event object per span, and the
   mandatory trace_event keys present. *)
let check_json_balanced json =
  let depth = ref 0 and in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then escaped := false
      else if !in_string then begin
        if c = '\\' then escaped := true else if c = '"' then in_string := false
      end
      else
        match c with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then Alcotest.fail "unbalanced JSON"
        | _ -> ())
    json;
  Alcotest.(check int) "balanced JSON nesting" 0 !depth;
  Alcotest.(check bool) "no unterminated string" false !in_string

let test_trace_chrome_json () =
  let trace = Trace.create () in
  let suite =
    Engine.run_suite ~spec:small_spec ~trace ~domains:2
      ~benchmarks:
        [ Ee_bench_circuits.Itc99.find "b01"; Ee_bench_circuits.Itc99.find "b06" ]
      ()
  in
  Alcotest.(check int) "two results" 2 (List.length suite.Engine.results);
  let json = Trace.to_chrome_json trace in
  check_json_balanced json;
  Alcotest.(check bool) "has traceEvents" true
    (count_substring json "\"traceEvents\"" = 1);
  let expected_events = 2 * List.length Engine.stage_names in
  Alcotest.(check int) "one complete event per span" expected_events
    (count_substring json "\"ph\":\"X\"");
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "stage %s appears per benchmark" stage)
        2
        (count_substring json (Printf.sprintf "\"name\":\"%s\"" stage)))
    Engine.stage_names

let test_spec_builders () =
  let spec =
    Engine.default_spec
    |> Engine.with_threshold 80.
    |> Engine.with_coverage_only true
    |> Engine.with_min_coverage 25.
    |> Engine.with_share_triggers true
    |> Engine.with_vectors 7
    |> Engine.with_seed 3
    |> Engine.with_gate_delay 2.
    |> Engine.with_ee_overhead 0.5
    |> Engine.with_selection Engine.Mcr
  in
  let o = Engine.synth_options spec in
  Alcotest.(check (float 0.)) "threshold" 80. o.Ee_core.Synth.threshold;
  Alcotest.(check bool) "coverage-only weighting" true
    (o.Ee_core.Synth.weighting = Ee_core.Cost.Coverage_only);
  Alcotest.(check (float 0.)) "min coverage" 25. o.Ee_core.Synth.min_coverage;
  Alcotest.(check bool) "share triggers" true o.Ee_core.Synth.share_triggers;
  let c = Engine.sim_config spec in
  Alcotest.(check (float 0.)) "gate delay" 2. c.Ee_sim.Sim.gate_delay;
  Alcotest.(check (float 0.)) "ee overhead" 0.5 c.Ee_sim.Sim.ee_overhead;
  Alcotest.(check int) "vectors" 7 spec.Engine.vectors;
  Alcotest.(check int) "seed" 3 spec.Engine.seed;
  Alcotest.(check bool) "selection" true (spec.Engine.selection = Engine.Mcr);
  Alcotest.(check bool) "default selection is Eq1" true
    (Engine.default_spec.Engine.selection = Engine.Eq1);
  let m = Engine.mcr_options spec in
  Alcotest.(check (float 0.)) "mcr min coverage" 25. m.Ee_core.Mcr_select.min_coverage;
  Alcotest.(check (float 0.)) "mcr gate delay" 2. m.Ee_core.Mcr_select.gate_delay;
  Alcotest.(check (float 0.)) "mcr ee overhead" 0.5 m.Ee_core.Mcr_select.ee_overhead

(* The Engine's Mcr selection hook must route through Mcr_select and yield
   the same plan as calling it directly. *)
let test_engine_mcr_selection () =
  let b = Ee_bench_circuits.Itc99.find "b06" in
  let spec = small_spec |> Engine.with_selection Engine.Mcr in
  let r = Engine.run ~spec b in
  let pl =
    Ee_phased.Pl.of_netlist (Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()))
  in
  let _, direct = Ee_core.Mcr_select.run ~options:(Engine.mcr_options spec) pl in
  Alcotest.(check int) "ee gates match direct Mcr_select"
    direct.Ee_core.Synth.ee_gates
    r.Engine.artifact.Ee_report.Pipeline.synth_report.Ee_core.Synth.ee_gates

let suite =
  ( "engine",
    [
      Alcotest.test_case "pool: map preserves order" `Quick test_pool_map_order;
      Alcotest.test_case "pool: exceptions propagate" `Quick test_pool_exception;
      Alcotest.test_case "pool: the awaiting caller runs queued tasks" `Quick
        test_pool_caller_runs_tasks;
      Alcotest.test_case "pool: submit after shutdown" `Quick test_pool_submit_after_shutdown;
      Alcotest.test_case "pool: try_await captures failures" `Quick test_pool_try_await;
      Alcotest.test_case "pool: await_timeout gives up on hung tasks" `Quick test_pool_await_timeout;
      Alcotest.test_case "pool: concurrent submitters keep results separate" `Quick
        test_pool_concurrent_submitters;
      Alcotest.test_case "pool: abandon races concurrent submitters safely" `Quick
        test_pool_abandon_under_concurrent_submitters;
      Alcotest.test_case "suite: crash degrades to an error row" `Quick test_suite_isolates_crash;
      Alcotest.test_case "suite: rejects non-positive deadline" `Quick
        test_suite_rejects_bad_deadline;
      Alcotest.test_case "spec fingerprint injective over knobs" `Quick test_spec_fingerprint;
      Alcotest.test_case "suite: deadline bounds a hung benchmark" `Quick
        test_suite_deadline_on_hung_benchmark;
      Alcotest.test_case "run == legacy Pipeline+Tables chain" `Quick test_run_matches_legacy_pipeline;
      Alcotest.test_case "trace: one span per stage" `Quick test_trace_spans;
      Alcotest.test_case "trace: Chrome JSON well-formed" `Quick test_trace_chrome_json;
      Alcotest.test_case "spec builders" `Quick test_spec_builders;
      Alcotest.test_case "suite: 4 domains == sequential" `Slow test_suite_parallel_matches_sequential;
      Alcotest.test_case "Mcr selection hook" `Slow test_engine_mcr_selection;
    ] )
