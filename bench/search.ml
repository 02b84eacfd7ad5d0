open Report

(* Experiment 18: the CEGIS trigger search against brute-force
   subset enumeration, and shared multi-master triggers on the ITC99
   suite.  Writes BENCH_search.json.

   Gates (exit 1):
   - at arity 6 under the deployed pruning configuration (coverage floor +
     top-k ring) the CEGIS driver must beat brute force wall-clock;
   - searched and brute candidate lists must agree on every function;
   - on every ITC99 bench the shared-trigger period must not exceed the
     per-gate MCR plan's. *)

let print_search ~fast () =
  section "Search: CEGIS trigger synthesis vs brute force (Ext. 18)";
  let module Driver = Ee_search.Driver in
  let module Select = Ee_search.Search_select in
  let module Cutmap = Ee_rtl.Cutmap in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  (* A. Crossover: random functions per arity, both engines, unpruned and
     under the pruning the selection flow actually deploys. *)
  let pr_min = 50. and pr_top = 8 in
  let n_funcs = if fast then 12 else 48 in
  let t =
    Ee_util.Table.create
      ~headers:
        [ "Arity"; "Funcs"; "Brute ms"; "Search ms"; "Brute ms (pruned)"; "Search ms (pruned)"; "Agree" ]
  in
  let crossover_rows = ref [] in
  let disagreements = ref 0 in
  let gate_search_ms = ref infinity and gate_brute_ms = ref 0. in
  List.iter
    (fun arity ->
      let fs =
        Array.init n_funcs (fun i ->
            Ee_logic.Truthtab.random (Ee_util.Prng.create (seed + (1000 * arity) + i)) arity)
      in
      let run_all f = Array.iter (fun tt -> ignore (f tt)) fs in
      (* One timed pass is at the mercy of CPU-frequency bursts on shared
         runners, so: warm both engines up, then interleave repeated passes
         and keep each engine's best — drift hits all four configurations
         alike instead of whichever ran first. *)
      let brute () = run_all Ee_core.Trigger_wide.candidates in
      let search () = run_all Driver.candidates in
      let brute_pr () =
        run_all (Ee_core.Trigger_wide.candidates ~min_coverage:pr_min ~top_k:pr_top)
      in
      let search_pr () =
        run_all (fun tt -> Driver.candidates ~min_coverage:pr_min ~top_k:pr_top tt)
      in
      let probed = ref 0 and bound_pruned = ref 0 in
      (* Warmup doubles as the stats pass. *)
      brute ();
      search ();
      brute_pr ();
      Array.iter
        (fun tt ->
          let _, stats = Driver.search ~min_coverage:pr_min ~top_k:pr_top tt in
          probed := !probed + stats.Driver.probed;
          bound_pruned := !bound_pruned + stats.Driver.bound_pruned)
        fs;
      let brute_ms = ref infinity
      and search_ms = ref infinity
      and brute_pr_ms = ref infinity
      and search_pr_ms = ref infinity in
      for _ = 1 to 3 do
        let (), ms = time brute in
        brute_ms := Float.min !brute_ms ms;
        let (), ms = time search in
        search_ms := Float.min !search_ms ms;
        let (), ms = time brute_pr in
        brute_pr_ms := Float.min !brute_pr_ms ms;
        let (), ms = time search_pr in
        search_pr_ms := Float.min !search_pr_ms ms
      done;
      let brute_ms = !brute_ms
      and search_ms = !search_ms
      and brute_pr_ms = !brute_pr_ms
      and search_pr_ms = !search_pr_ms in
      let agree = Array.for_all Driver.agrees_with_brute fs in
      if not agree then incr disagreements;
      if arity = 6 then begin
        gate_search_ms := search_pr_ms;
        gate_brute_ms := brute_pr_ms
      end;
      Ee_util.Table.add_row t
        [
          string_of_int arity;
          string_of_int n_funcs;
          Printf.sprintf "%.2f" brute_ms;
          Printf.sprintf "%.2f" search_ms;
          Printf.sprintf "%.2f" brute_pr_ms;
          Printf.sprintf "%.2f" search_pr_ms;
          (if agree then "yes" else "NO");
        ];
      crossover_rows :=
        Json.Obj
          [
            ("arity", Json.Int arity);
            ("functions", Json.Int n_funcs);
            ("brute_ms", Json.Float brute_ms);
            ("search_ms", Json.Float search_ms);
            ("brute_pruned_ms", Json.Float brute_pr_ms);
            ("search_pruned_ms", Json.Float search_pr_ms);
            ("probed", Json.Int !probed);
            ("bound_pruned", Json.Int !bound_pruned);
            ("agree", Json.Bool agree);
          ]
        :: !crossover_rows)
    [ 4; 5; 6 ];
  Ee_util.Table.print t;
  let crossover_ok = !gate_search_ms < !gate_brute_ms in
  Printf.printf
    "arity-6 pruned crossover (floor %.0f%%, top-%d): search %.2f ms vs brute %.2f ms (%s)\n"
    pr_min pr_top !gate_search_ms !gate_brute_ms
    (if crossover_ok then "search wins" else "BRUTE WINS");
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
                match Driver.candidates ~top_k:1 w.Cutmap.wfunc with
                | c :: _ -> acc +. c.Driver.coverage
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
        ("crossover", Json.List (List.rev !crossover_rows));
        ( "crossover_gate",
          Json.Obj
            [
              ("arity", Json.Int 6);
              ("min_coverage", Json.Float pr_min);
              ("top_k", Json.Int pr_top);
              ("search_ms", Json.Float !gate_search_ms);
              ("brute_ms", Json.Float !gate_brute_ms);
              ("passed", Json.Bool crossover_ok);
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
    fail (Printf.sprintf "search/brute disagreement on %d arity group(s)" !disagreements);
  if not crossover_ok then fail "pruned search slower than brute force at arity 6";
  fail_all !lambda_failures
