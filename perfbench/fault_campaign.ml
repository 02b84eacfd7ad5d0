(* fault_campaign: [Campaign.run] at 16 waves over ITC99 b01-b13 without
   b04 and b07 (each alone takes several seconds), on EE pipelines built
   during set-up.  The only workload that drives [Rail_sim] and the fault
   layer; the timed simulator and the planners do no work in the measured
   phase. *)

module Pipeline = Ee_report.Pipeline
module Campaign = Ee_fault.Campaign

let ids = [ "b01"; "b02"; "b03"; "b05"; "b06"; "b08"; "b09"; "b10"; "b11"; "b12"; "b13" ]
let waves = 16

let line (r : Campaign.report) =
  Printf.sprintf "faults %s gates=%d masked=%d detected=%d deadlock=%d wrong_output=%d"
    r.Campaign.bench r.Campaign.pl_gates r.Campaign.masked r.Campaign.detected
    r.Campaign.deadlock r.Campaign.wrong_output

let faults (r : Campaign.report) = List.length r.Campaign.records

(* Faults per circuit replayed one at a time by the oracle. *)
let replayed = 8

(* Oracles: the fault-free netlist agrees with the golden model under every
   delay schedule; a stride sample of the faults, replayed one at a time
   through [Campaign.run_fault] against vectors and golden outputs made here
   from the seed, gets the outcome the campaign recorded; and the four
   classes sum to the faults [Fault.enumerate] gives.  The last check holds
   by construction in today's [Campaign.run]; it guards a rewrite that
   stops enumerating through it. *)
let oracle ~seed tally (a : Pipeline.artifact) (r : Campaign.report) =
  let check what ok =
    Metrics.record tally ok;
    if not ok then Harness.fail "fault_campaign: %s: %s" r.Campaign.bench what
  in
  List.iter
    (fun (s : Campaign.schedule_check) ->
      check (Printf.sprintf "fault-free %s schedule disagrees" s.Campaign.schedule)
        s.Campaign.agrees)
    r.Campaign.schedules;
  let pl = a.Pipeline.pl_ee and nl = a.Pipeline.netlist in
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Ee_phased.Pl.source_ids pl) in
  let vectors = List.init waves (fun _ -> Ee_util.Prng.bool_vector rng width) in
  let expected =
    List.rev
      (fst
         (List.fold_left
            (fun (outs, st) vec ->
              let o, st' = Ee_netlist.Netlist.step nl st vec in
              (o :: outs, st'))
            ([], Ee_netlist.Netlist.initial_state nl)
            vectors))
  in
  let stride = max 1 (faults r / replayed) in
  List.iteri
    (fun i (rc : Campaign.record) ->
      if i mod stride = 0 then begin
        let o = Campaign.run_fault pl ~vectors ~expected rc.Campaign.fault in
        let name x = Campaign.outcome_class x ^ " " ^ Campaign.outcome_detail x in
        check
          (Printf.sprintf "fault %d replays as %s, recorded %s" i (name o)
             (name rc.Campaign.outcome))
          (name o = name rc.Campaign.outcome)
      end)
    r.Campaign.records;
  let enumerated = List.length (Ee_fault.Fault.enumerate pl ~waves) in
  let classified =
    r.Campaign.masked + r.Campaign.detected + r.Campaign.deadlock + r.Campaign.wrong_output
  in
  check
    (Printf.sprintf "%d faults classified, %d enumerated" classified enumerated)
    (classified = enumerated && faults r = enumerated)

let run (cfg : Harness.config) =
  let seed = cfg.Harness.seed in
  let tally = Metrics.tally () in
  let artifacts, setup =
    Harness.setup ~repeats:31 (fun () ->
        List.map (fun id -> Pipeline.build (Ee_bench_circuits.Itc99.find id)) ids)
  in
  let campaign (a : Pipeline.artifact) =
    Span.with_ "fault" (fun () ->
        Campaign.run ~waves ~seed ~bench:a.Pipeline.id a.Pipeline.pl_ee a.Pipeline.netlist)
  in
  let reference = ref None and last = ref [] and op_ms = ref [] and ops = ref 0 in
  let pass () =
    let reports =
      List.map
        (fun (a : Pipeline.artifact) ->
          let r, dt = Harness.time (fun () -> campaign a) in
          Metrics.record tally true;
          ops := !ops + faults r;
          op_ms := (a.Pipeline.id, dt *. 1000.) :: !op_ms;
          r)
        artifacts
    in
    Harness.same_as_first tally "fault_campaign" reference (List.map line reports);
    last := reports
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 !last in
  let passes, per_layer =
    if not cfg.Harness.trace then (Harness.measure ~seconds:cfg.Harness.seconds pass, [])
    else begin
      let n, overhead = Harness.traced_measure cfg pass in
      let ms, mw = Span.total "fault" in
      let per x = x /. float_of_int n in
      let count f = float_of_int (sum f) in
      ( [||],
        Metrics.
          [
            overhead;
            metric "fault.ms" "ms" (per ms);
            metric "fault.mwords" "Mwords" (per mw);
            metric "fault.faults" "count" (count faults);
            metric "fault.us_per_fault" "us" (per ms *. 1000. /. count faults);
            metric "fault.masked" "count" (count (fun r -> r.Campaign.masked));
            metric "fault.detected" "count" (count (fun r -> r.Campaign.detected));
            metric "fault.deadlock" "count" (count (fun r -> r.Campaign.deadlock));
            metric "fault.wrong_output" "count" (count (fun r -> r.Campaign.wrong_output));
          ] )
    end
  in
  List.iter2 (oracle ~seed tally) artifacts !last;
  let total = sum faults in
  let wrong = sum (fun r -> r.Campaign.wrong_output) in
  let safe = 100. *. float_of_int (total - wrong) /. float_of_int total in
  Printf.printf "fault_campaign: %d faults per pass, %.4f %% without a silently wrong output\n"
    total safe;
  let end_to_end =
    if cfg.Harness.trace then []
    else
      Harness.timing_metrics ~setup ~passes ~ops:!ops ~op_ms:(Harness.circuit_means !op_ms)
        ~tail_p:90. ~rss:(Harness.self_rss ())
      @ [ Metrics.metric "result_pct" "%" safe ]
  in
  { Harness.tally; end_to_end; per_layer; digest = Option.get !reference }
