open Report

(* Experiment 18: the quantified trigger extractor against the minterm
   scan it is defined by, and shared multi-master triggers on the ITC99
   suite.  Writes BENCH_search.json.

   Gates (exit 1):
   - extractor and scan candidate lists must agree on every function,
     unpruned and pruned;
   - at arity 6 under the deployed pruning configuration (coverage floor +
     top-k) the extractor must beat the scan wall-clock;
   - on every ITC99 bench the shared-trigger period must not exceed the
     per-gate MCR plan's. *)

(* The reference: every subset's trigger by {!Ee_core.Trigger.scan_function},
   under the extractor's own prune rule. *)
let scan_candidates ?min_coverage ?top_k tt =
  let size = float_of_int (1 lsl Ee_logic.Truthtab.arity tt) in
  List.map
    (fun subset ->
      let func = Ee_core.Trigger.scan_function tt ~subset in
      let coverage_count = Ee_logic.Truthtab.count_ones func in
      {
        Ee_core.Trigger.subset;
        func;
        coverage_count;
        coverage = 100. *. float_of_int coverage_count /. size;
      })
    (Ee_util.Bits.all_nonempty_proper_subsets (Ee_logic.Truthtab.support tt))
  |> Ee_core.Trigger.prune ?min_coverage ?top_k

let print_search ~fast () =
  section "Search: quantified trigger extraction vs the minterm scan (Ext. 18)";
  let module Trigger = Ee_core.Trigger in
  let module Select = Ee_search.Search_select in
  let module Cutmap = Ee_rtl.Cutmap in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  (* A. Random functions per arity, both routes, unpruned and under the
     pruning the selection flow actually deploys. *)
  let pr_min = 50. and pr_top = 8 in
  let n_funcs = if fast then 12 else 48 in
  let t =
    Ee_util.Table.create
      ~headers:
        [
          "Arity"; "Funcs"; "Scan ms"; "Extract ms"; "Scan ms (pruned)"; "Extract ms (pruned)";
          "Agree";
        ]
  in
  let arity_rows = ref [] in
  let disagreements = ref 0 in
  let gate_extract_ms = ref infinity and gate_scan_ms = ref 0. in
  List.iter
    (fun arity ->
      let fs =
        Array.init n_funcs (fun i ->
            Ee_logic.Truthtab.random (Ee_util.Prng.create (seed + (1000 * arity) + i)) arity)
      in
      let run_all f = Array.map f fs in
      let scan () = run_all (fun tt -> scan_candidates tt) in
      let extract () = run_all (fun tt -> Trigger.extract tt) in
      let scan_pr () = run_all (scan_candidates ~min_coverage:pr_min ~top_k:pr_top) in
      let extract_pr () = run_all (Trigger.extract ~min_coverage:pr_min ~top_k:pr_top) in
      (* One timed pass is at the mercy of CPU-frequency bursts on shared
         runners, so the warmup pass doubles as the agreement check, then
         repeated passes interleave and each route keeps its best — drift
         hits all four configurations alike instead of whichever ran
         first. *)
      let agree = scan () = extract () && scan_pr () = extract_pr () in
      if not agree then incr disagreements;
      let best = Array.make 4 infinity in
      for _ = 1 to 3 do
        List.iteri
          (fun i f ->
            let _, ms = time f in
            best.(i) <- Float.min best.(i) ms)
          [ scan; extract; scan_pr; extract_pr ]
      done;
      let scan_ms = best.(0) and extract_ms = best.(1) in
      let scan_pr_ms = best.(2) and extract_pr_ms = best.(3) in
      if arity = 6 then begin
        gate_extract_ms := extract_pr_ms;
        gate_scan_ms := scan_pr_ms
      end;
      Ee_util.Table.add_row t
        [
          string_of_int arity;
          string_of_int n_funcs;
          Printf.sprintf "%.2f" scan_ms;
          Printf.sprintf "%.2f" extract_ms;
          Printf.sprintf "%.2f" scan_pr_ms;
          Printf.sprintf "%.2f" extract_pr_ms;
          (if agree then "yes" else "NO");
        ];
      arity_rows :=
        Json.Obj
          [
            ("arity", Json.Int arity);
            ("functions", Json.Int n_funcs);
            ("scan_ms", Json.Float scan_ms);
            ("extract_ms", Json.Float extract_ms);
            ("scan_pruned_ms", Json.Float scan_pr_ms);
            ("extract_pruned_ms", Json.Float extract_pr_ms);
            ("agree", Json.Bool agree);
          ]
        :: !arity_rows)
    [ 4; 5; 6; 7; 8 ];
  Ee_util.Table.print t;
  let extractor_ok = !gate_extract_ms < !gate_scan_ms in
  Printf.printf
    "arity-6 pruned (floor %.0f%%, top-%d): extractor %.2f ms vs scan %.2f ms (%s)\n"
    pr_min pr_top !gate_extract_ms !gate_scan_ms
    (if extractor_ok then "extractor wins" else "SCAN WINS");
  (* B. ITC99 shared-trigger periods against the per-gate MCR floor, plus
     the wide-cone coverage summary at LUT-6. *)
  let t =
    Ee_util.Table.create
      ~headers:
        [
          "Benchmark"; "no-EE"; "MCR"; "Search"; "Trials"; "Groups"; "Wide cones"; "Best cov %";
          "MCR ms"; "Search ms";
        ]
  in
  let lambda_failures = ref [] and plan_ms = ref [] in
  let itc_rows =
    List.map
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        let id = b.Ee_bench_circuits.Itc99.id in
        let a = Ee_report.Pipeline.build b in
        let pl = a.Ee_report.Pipeline.pl in
        (* The MCR floor, then the whole Search plan, which plans the
           same floor again before its shared-trigger trials; each from
           an empty trigger memo. *)
        let (), mcr_ms =
          time (fun () ->
              ignore (Ee_core.Mcr_select.plan ~memo:(Ee_core.Trigger.Memo.create ()) pl))
        in
        let (_, r), search_ms =
          time (fun () -> Select.run ~memo:(Ee_core.Trigger.Memo.create ()) pl)
        in
        plan_ms := (id, mcr_ms, search_ms) :: !plan_ms;
        if r.Select.lambda > r.Select.lambda_mcr then
          lambda_failures :=
            Printf.sprintf "%s: shared lambda %.4f > mcr lambda %.4f" id r.Select.lambda
              r.Select.lambda_mcr
            :: !lambda_failures;
        let covers =
          Cutmap.wide_covers ~lut_k:6
            (Ee_frontend.Remap.to_gates a.Ee_report.Pipeline.netlist)
        in
        let wide = List.filter (fun w -> List.length w.Cutmap.wleaves > 4) covers in
        let best_cov =
          if wide = [] then 0.
          else
            List.fold_left
              (fun acc w ->
                match Trigger.extract ~top_k:1 w.Cutmap.wfunc with
                | c :: _ -> acc +. c.Trigger.coverage
                | [] -> acc)
              0. wide
            /. float_of_int (List.length wide)
        in
        Ee_util.Table.add_row t
          [
            id;
            Printf.sprintf "%.2f" r.Select.lambda_no_ee;
            Printf.sprintf "%.2f" r.Select.lambda_mcr;
            Printf.sprintf "%.2f" r.Select.lambda;
            string_of_int r.Select.trials;
            string_of_int (List.length r.Select.shared_groups);
            string_of_int (List.length wide);
            Printf.sprintf "%.1f" best_cov;
            Printf.sprintf "%.1f" mcr_ms;
            Printf.sprintf "%.1f" search_ms;
          ];
        Json.Obj
          [
            ("id", Json.String id);
            ("lambda_no_ee", Json.Float r.Select.lambda_no_ee);
            ("lambda_mcr", Json.Float r.Select.lambda_mcr);
            ("lambda_search", Json.Float r.Select.lambda);
            ("trials", Json.Int r.Select.trials);
            ("fell_back", Json.Bool r.Select.fell_back);
            ("shared_groups", Json.Int (List.length r.Select.shared_groups));
            ("wide_cones", Json.Int (List.length wide));
            ("mean_best_coverage_percent", Json.Float best_cov);
            ("mcr_ms", Json.Float mcr_ms);
            ("search_ms", Json.Float search_ms);
          ])
      (itc99 ~fast)
  in
  Ee_util.Table.print t;
  let json =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("fast", Json.Bool fast);
        ("arities", Json.List (List.rev !arity_rows));
        ( "extractor_gate",
          Json.Obj
            [
              ("arity", Json.Int 6);
              ("min_coverage", Json.Float pr_min);
              ("top_k", Json.Int pr_top);
              ("extract_ms", Json.Float !gate_extract_ms);
              ("scan_ms", Json.Float !gate_scan_ms);
              ("passed", Json.Bool extractor_ok);
            ] );
        ("itc99", Json.List itc_rows);
        ( "plan_ms_total",
          (* Planning wall time summed over b01-b13 (the circuits of the
             mcr_plan workload) and over every row. *)
          let total keep =
            List.fold_left
              (fun (m, s) (id, mcr, search) -> if keep id then (m +. mcr, s +. search) else (m, s))
              (0., 0.) !plan_ms
          in
          let entry (tag, (mcr, search)) =
            (tag, Json.Obj [ ("mcr_ms", Json.Float mcr); ("search_ms", Json.Float search) ])
          in
          Json.Obj
            (List.map entry
               [ ("b01_b13", total (fun id -> id <= "b13")); ("all", total (fun _ -> true)) ]) );
        ("lambda_gate_passed", Json.Bool (!lambda_failures = []));
      ]
  in
  write_json "BENCH_search.json" json;
  if !disagreements > 0 then
    fail (Printf.sprintf "extractor/scan disagreement on %d arity group(s)" !disagreements);
  if not extractor_ok then fail "pruned extractor slower than the scan at arity 6";
  fail_all !lambda_failures
