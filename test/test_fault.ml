(* Fault-injection campaigns: classification taxonomy, schedule
   insensitivity of the fault-free netlist, and marked-graph token
   forensics. *)

module Fault = Ee_fault.Fault
module Campaign = Ee_fault.Campaign
module Pl = Ee_phased.Pl
module Rail_sim = Ee_phased.Rail_sim
module Netlist = Ee_netlist.Netlist
module Mg = Ee_markedgraph.Marked_graph

let artifact id = Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find id)

let golden nl vectors =
  let st = ref (Netlist.initial_state nl) in
  List.map
    (fun vec ->
      let outs, st' = Netlist.step nl !st vec in
      st := st';
      outs)
    vectors

let vectors_and_golden nl ~width ~waves ~seed =
  let rng = Ee_util.Prng.create seed in
  let vectors = List.init waves (fun _ -> Ee_util.Prng.bool_vector rng width) in
  (vectors, golden nl vectors)

(* Acceptance: every enumerated fault gets a class, the classes partition
   the fault list, and the fault-free netlist agrees with the golden model
   under every adversarial delay schedule (zero wrong-output without an
   injected fault). *)
let test_campaign_classifies_everything () =
  List.iter
    (fun id ->
      let a = artifact id in
      let pl = a.Ee_report.Pipeline.pl_ee in
      let r = Campaign.run ~waves:10 ~seed:5 ~bench:id pl a.Ee_report.Pipeline.netlist in
      Alcotest.(check int)
        (id ^ ": every enumerated fault classified")
        (List.length (Fault.enumerate pl ~waves:10))
        (List.length r.Campaign.records);
      Alcotest.(check int)
        (id ^ ": classes partition the fault list")
        (List.length r.Campaign.records)
        (r.Campaign.masked + r.Campaign.detected + r.Campaign.deadlock + r.Campaign.wrong_output);
      Alcotest.(check int) (id ^ ": all four schedules ran") 4 (List.length r.Campaign.schedules);
      List.iter
        (fun (s : Campaign.schedule_check) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: schedule %s agrees with golden model" id s.Campaign.schedule)
            true s.Campaign.agrees)
        r.Campaign.schedules)
    [ "b01"; "b03"; "b06" ]

(* The paper's netlists detect or starve on rail faults; only v-rail
   faults at the output boundary can silently mis-compute.  b01 has
   none; b04 has some, and the campaign must find them. *)
let test_wrong_output_class () =
  let a = artifact "b01" in
  let r =
    Campaign.run ~waves:16 ~seed:2002 ~bench:"b01" a.Ee_report.Pipeline.pl_ee
      a.Ee_report.Pipeline.netlist
  in
  Alcotest.(check int) "b01 has no silent corruption" 0 r.Campaign.wrong_output;
  let a4 = artifact "b04" in
  let r4 =
    Campaign.run ~waves:16 ~seed:2002 ~bench:"b04" a4.Ee_report.Pipeline.pl_ee
      a4.Ee_report.Pipeline.netlist
  in
  Alcotest.(check bool) "b04 exposes silent v-rail corruption" true (r4.Campaign.wrong_output > 0);
  List.iter
    (fun (rec_ : Campaign.record) ->
      match rec_.Campaign.outcome with
      | Campaign.Wrong_output _ -> (
          match rec_.Campaign.fault with
          | Fault.Stuck_rail { rail = Fault.V; _ } | Fault.Glitch_rail { rail = Fault.V; _ } -> ()
          | f ->
              Alcotest.fail
                ("only v-rail faults may corrupt silently, got " ^ Fault.to_string f))
      | _ -> ())
    r4.Campaign.records

(* Direct taxonomy checks on single faults. *)
let first_gate_with_comb_consumer pl =
  let gates = Pl.gates pl in
  let has_comb_consumer i =
    Array.exists
      (fun g ->
        match g.Pl.kind with
        | Pl.Gate _ | Pl.Trigger _ | Pl.Register _ -> Array.mem i g.Pl.fanin
        | _ -> false)
      gates
  in
  let rec find i =
    if i >= Array.length gates then Alcotest.fail "no internal gate found"
    else
      match gates.(i).Pl.kind with
      | Pl.Gate _ when has_comb_consumer i -> i
      | _ -> find (i + 1)
  in
  find 0

let test_single_fault_taxonomy () =
  let a = artifact "b06" in
  let pl = a.Ee_report.Pipeline.pl_ee in
  let width = Array.length (Pl.source_ids pl) in
  let vectors, expected =
    vectors_and_golden a.Ee_report.Pipeline.netlist ~width ~waves:8 ~seed:3
  in
  let gate = first_gate_with_comb_consumer pl in
  (match Campaign.run_fault pl ~vectors ~expected (Fault.Token_dup { gate; wave = 2 }) with
  | Campaign.Detected _ -> ()
  | o -> Alcotest.fail ("token dup should be detected, got " ^ Campaign.outcome_class o));
  (match Campaign.run_fault pl ~vectors ~expected (Fault.Token_loss { gate; wave = 2 }) with
  | Campaign.Deadlock s ->
      Alcotest.(check int) "stalls in the faulted wave" 2 s.Rail_sim.stall_wave;
      Alcotest.(check bool) "forensics name the dropped gate as a root" true
        (List.mem gate s.Rail_sim.roots)
  | o -> Alcotest.fail ("token loss should deadlock, got " ^ Campaign.outcome_class o));
  (* Glitching one wire of one transition either cancels the legal flip
     (starvation, with a token-free cycle to blame) or adds a second flip
     (detected breach) — one of each across the two rails. *)
  let glitch rail = Campaign.run_fault pl ~vectors ~expected (Fault.Glitch_rail { gate; rail; wave = 2 }) in
  (match (glitch Fault.V, glitch Fault.T) with
  | Campaign.Detected _, Campaign.Deadlock s | Campaign.Deadlock s, Campaign.Detected _ ->
      Alcotest.(check bool) "stale source named" true (List.mem gate s.Rail_sim.stale_sources);
      Alcotest.(check bool) "token-free cycle found" true (s.Rail_sim.blamed_cycle <> [])
  | a, b ->
      Alcotest.fail
        (Printf.sprintf "glitch pair should be detected+deadlock, got %s/%s"
           (Campaign.outcome_class a) (Campaign.outcome_class b)))

let test_trigger_suppression_harmless () =
  let a = artifact "b01" in
  let pl = a.Ee_report.Pipeline.pl_ee in
  let width = Array.length (Pl.source_ids pl) in
  let vectors, expected =
    vectors_and_golden a.Ee_report.Pipeline.netlist ~width ~waves:8 ~seed:3
  in
  let masters =
    List.filter (fun i -> Pl.ee pl i <> None)
      (List.init (Array.length (Pl.gates pl)) Fun.id)
  in
  Alcotest.(check bool) "b01 has EE masters" true (masters <> []);
  List.iter
    (fun master ->
      List.iter
        (fun wave ->
          match
            Campaign.run_fault pl ~vectors ~expected
              (Fault.Trigger_corrupt { master; wave; forced = false })
          with
          | Campaign.Masked -> ()
          | o ->
              Alcotest.fail
                (Printf.sprintf "suppressing EE on master %d must be harmless, got %s" master
                   (Campaign.outcome_class o)))
        [ 0; 3 ])
    masters

let test_token_audit () =
  let a = artifact "b01" in
  let pl = a.Ee_report.Pipeline.pl_ee in
  let steps = 50 * Array.length (Pl.gates pl) in
  let audits = Campaign.token_audit pl ~steps ~seed:3 in
  Alcotest.(check bool) "audited some arcs" true (List.length audits > 10);
  let losses = List.filter (fun (x : Campaign.token_audit) -> x.Campaign.delta = -1) audits in
  let dups = List.filter (fun (x : Campaign.token_audit) -> x.Campaign.delta = 1) audits in
  Alcotest.(check bool) "some losses and some dups" true (losses <> [] && dups <> []);
  List.iter
    (fun (x : Campaign.token_audit) ->
      match x.Campaign.verdict with
      | Campaign.Audit_dead d ->
          Alcotest.(check bool) "a true deadlock: nothing enabled" true (d.Mg.dead_enabled = []);
          Alcotest.(check bool) "forensics blame a token-free cycle" true (d.Mg.dead_cycle <> [])
      | Campaign.Audit_unsafe _ -> Alcotest.fail "token loss cannot create a duplicate"
      | Campaign.Audit_live -> Alcotest.fail "token loss must starve the graph")
    losses;
  List.iter
    (fun (x : Campaign.token_audit) ->
      match x.Campaign.verdict with
      | Campaign.Audit_unsafe _ -> ()
      | _ -> Alcotest.fail "duplicate token must trip the safety check")
    dups

(* Structural well-formedness of the JSON/CSV reports. *)
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

let count_substring hay needle =
  let n = String.length needle in
  let rec go from acc =
    if from + n > String.length hay then acc
    else if String.sub hay from n = needle then go (from + 1) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let test_report_rendering () =
  let a = artifact "b06" in
  let r =
    Campaign.run ~waves:8 ~seed:5 ~bench:"b06" a.Ee_report.Pipeline.pl_ee
      a.Ee_report.Pipeline.netlist
  in
  let json = Campaign.to_json r in
  check_json_balanced json;
  Alcotest.(check int) "one class field per fault record"
    (List.length r.Campaign.records)
    (count_substring json "\"class\":");
  Alcotest.(check int) "four schedule objects" 4 (count_substring json "\"schedule\":");
  let csv = Campaign.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header plus one CSV line per fault"
    (1 + List.length r.Campaign.records)
    (List.length lines)

(* The forked campaign (checkpoint start, differential waves over the
   gates the fault can reach, reconvergence exit) classifies every fault
   exactly as the cold one-fault run does, detail included. *)
let check_matches_cold label pl ~vectors ~expected (r : Campaign.report) =
  List.iter
    (fun (rec_ : Campaign.record) ->
      let cold = Campaign.run_fault pl ~vectors ~expected rec_.Campaign.fault in
      let show o = Campaign.outcome_class o ^ " " ^ Campaign.outcome_detail o in
      if show cold <> show rec_.Campaign.outcome then
        Alcotest.failf "%s: %s: campaign says %s, cold run %s" label
          (Fault.to_string rec_.Campaign.fault) (show rec_.Campaign.outcome) (show cold))
    r.Campaign.records

let test_forked_matches_cold () =
  List.iter
    (fun id ->
      let a = artifact id in
      let nl = a.Ee_report.Pipeline.netlist in
      List.iter
        (fun (variant, pl) ->
          List.iter
            (fun seed ->
              let r = Campaign.run ~waves:16 ~seed ~bench:id pl nl in
              let width = Array.length (Pl.source_ids pl) in
              let vectors, expected = vectors_and_golden nl ~width ~waves:16 ~seed in
              check_matches_cold (Printf.sprintf "%s %s seed %d" id variant seed) pl ~vectors
                ~expected r)
            [ 2002; 7 ])
        [ ("ee", a.Ee_report.Pipeline.pl_ee); ("no-ee", a.Ee_report.Pipeline.pl) ])
    [ "b01"; "b03"; "b05"; "b06"; "b08"; "b09"; "b12" ]

let report_md5 id =
  let a = artifact id in
  let r =
    Campaign.run ~waves:16 ~seed:2002 ~bench:id a.Ee_report.Pipeline.pl_ee
      a.Ee_report.Pipeline.netlist
  in
  Digest.to_hex (Digest.string (Campaign.to_json r))

(* The whole b01 report at the default seed, as the record-walking
   simulator and the one-fault-at-a-time campaign produced it. *)
let test_pinned_b01_report () =
  Alcotest.(check string) "MD5 of the b01 JSON report" "a7f0f06f660f857c854eb9efc5b9254b"
    (report_md5 "b01")

(* Two larger EE reports at the default seed and 16 waves, as the campaign
   that ran every faulty wave over the whole netlist produced them. *)
let test_pinned_b03_b08_reports () =
  Alcotest.(check string) "MD5 of the b03 JSON report" "3c322790d906b78dcdf0a6efa7a302b5"
    (report_md5 "b03");
  Alcotest.(check string) "MD5 of the b08 JSON report" "beccb664b7a3f6d95bf7078c582129df"
    (report_md5 "b08")

(* z = x AND y, with y two buffers late, and an EE trigger on x alone that
   always says "fire": a hook-free netlist whose master fires early with a
   stale y, which the late inputs then contradict. *)
let unjustified_trigger () =
  let b = Netlist.builder () in
  let x = Netlist.add_input b "x" in
  let y = Netlist.add_input b "y" in
  let y1 = Netlist.add_lut b (Ee_logic.Lut4.var 0) [| y |] in
  let y2 = Netlist.add_lut b (Ee_logic.Lut4.var 0) [| y1 |] in
  let z = Netlist.add_lut b Ee_logic.Lut4.(logand (var 0) (var 1)) [| x; y2 |] in
  Netlist.set_output b "z" z;
  let nl = Netlist.finalize b in
  let pl = Pl.of_netlist nl in
  let gates = Pl.gates pl in
  let master =
    List.find
      (fun i ->
        match gates.(i).Pl.kind with Pl.Gate _ -> Array.length gates.(i).Pl.fanin = 2 | _ -> false)
      (List.init (Array.length gates) Fun.id)
  in
  let req =
    { Pl.req_support = 0b01; req_func = Ee_logic.Lut4.const1; req_coverage = 0.; req_cost = 0. }
  in
  (nl, Pl.with_ee pl [ (master, req) ])

let test_schedule_checks_run_every_wave () =
  (* A wrong golden output in one wave: the schedules disagree, and their
     early counts still cover all waves. *)
  let a = artifact "b01" in
  let pl = a.Ee_report.Pipeline.pl_ee in
  let width = Array.length (Pl.source_ids pl) in
  let vectors, expected =
    vectors_and_golden a.Ee_report.Pipeline.netlist ~width ~waves:12 ~seed:4
  in
  let patched = List.mapi (fun w outs -> if w = 1 then Array.map not outs else outs) expected in
  let good = Campaign.check_schedules pl ~vectors ~expected ~seed:4 in
  let bad = Campaign.check_schedules pl ~vectors ~expected:patched ~seed:4 in
  List.iter2
    (fun (g : Campaign.schedule_check) (b : Campaign.schedule_check) ->
      Alcotest.(check bool)
        (g.Campaign.schedule ^ " agrees with the true outputs")
        true g.Campaign.agrees;
      Alcotest.(check bool)
        (b.Campaign.schedule ^ " disagrees with patched outputs")
        false b.Campaign.agrees;
      Alcotest.(check int) (b.Campaign.schedule ^ " counts early firings over the whole run")
        g.Campaign.early_total b.Campaign.early_total)
    good bad;
  Alcotest.(check bool) "b01 fires early at all" true
    (List.exists (fun (g : Campaign.schedule_check) -> g.Campaign.early_total > 0) good);
  (* A schedule that raises disagrees instead of escaping. *)
  let nl, pl = unjustified_trigger () in
  let vectors = [ [| true; false |]; [| true; true |]; [| true; false |]; [| false; true |] ] in
  let expected = golden nl vectors in
  let unit_sim = Rail_sim.create pl in
  ignore (Rail_sim.apply unit_sim (List.hd vectors));
  (match Rail_sim.apply unit_sim (List.nth vectors 1) with
  | _ -> Alcotest.fail "the unjustified early firing must be contradicted"
  | exception Rail_sim.Protocol_violation _ -> ());
  match Campaign.check_schedules pl ~vectors ~expected ~seed:4 with
  | exception e -> Alcotest.failf "check_schedules raised %s" (Printexc.to_string e)
  | checks ->
      let unit =
        List.find (fun (c : Campaign.schedule_check) -> c.Campaign.schedule = "unit") checks
      in
      Alcotest.(check bool) "the raising unit schedule disagrees" false unit.Campaign.agrees

(* When the fault-free run disagrees, there is no checkpoint to fork from:
   every fault runs cold, and the campaign still completes. *)
let test_campaign_without_checkpoints () =
  let nl, pl = unjustified_trigger () in
  let r = Campaign.run ~waves:8 ~seed:1 ~bench:"unjustified" pl nl in
  Alcotest.(check bool) "the unit schedule disagrees" false
    (List.hd r.Campaign.schedules).Campaign.agrees;
  let vectors, expected = vectors_and_golden nl ~width:2 ~waves:8 ~seed:1 in
  check_matches_cold "unjustified" pl ~vectors ~expected r

let test_token_audit_bounds () =
  let pl = (artifact "b01").Ee_report.Pipeline.pl_ee in
  List.iter
    (fun max_arcs ->
      match Campaign.token_audit ~max_arcs pl ~steps:10 ~seed:1 with
      | _ -> Alcotest.failf "max_arcs = %d accepted" max_arcs
      | exception Invalid_argument _ -> ())
    [ 0; -1 ];
  Alcotest.(check int) "max_arcs = 1 audits one arc" 1
    (List.length
       (List.sort_uniq compare
          (List.map (fun (x : Campaign.token_audit) -> x.Campaign.arc)
             (Campaign.token_audit ~max_arcs:1 pl ~steps:10 ~seed:1))))

let test_fault_windows () =
  let pl = (artifact "b06").Ee_report.Pipeline.pl_ee in
  List.iter
    (fun f ->
      let first, last = Fault.window f in
      match f with
      | Fault.Stuck_rail _ ->
          Alcotest.(check bool) "a stuck rail acts from wave 0 on" true
            (first = 0 && last = max_int)
      | _ -> Alcotest.(check bool) "a transient acts in its wave" true (first = 4 && last = 4))
    (Fault.enumerate pl ~waves:9)

(* The fault-free run of [pl] over [vectors], traced. *)
let traced pl vectors =
  let base = Rail_sim.create pl in
  let trace = Rail_sim.trace base in
  Array.iter (fun v -> ignore (Rail_sim.apply base v)) vectors;
  trace

let step sim v =
  match Rail_sim.apply sim v with
  | r -> `Wave r
  | exception Rail_sim.Protocol_violation m -> `Violation m
  | exception Rail_sim.Stalled s -> `Stall s

(* A fork keeps only its divergent set's state, yet after every wave its
   whole-netlist view is that of a full wave: [Rail_sim.copy] of the
   fault-free run at the fork's wave, with the same hooks, gives the same
   outcomes, rails, phases and state wave by wave. *)
let test_fork_state_view () =
  List.iter
    (fun id ->
      let a = artifact id in
      let pl = a.Ee_report.Pipeline.pl_ee and waves = 12 in
      let width = Array.length (Pl.source_ids pl) in
      let vectors =
        Array.of_list
          (fst (vectors_and_golden a.Ee_report.Pipeline.netlist ~width ~waves ~seed:2002))
      in
      let trace = traced pl vectors in
      let faults = Fault.enumerate pl ~waves in
      let stride = max 1 (List.length faults / 60) in
      List.iteri
        (fun k fault ->
          let first, last = Fault.window fault in
          if k mod stride = 0 && first < waves then begin
            let hooks = Fault.hooks fault in
            let fork = Rail_sim.fork trace ~wave:first ~site:(Fault.site fault) ~last ~hooks in
            let full = Rail_sim.create pl in
            for w = 0 to first - 1 do
              ignore (Rail_sim.apply full vectors.(w))
            done;
            let full = Rail_sim.copy full ~hooks in
            let rec go w =
              if w < waves then begin
                let label what =
                  Printf.sprintf "%s %s wave %d: %s" id (Fault.to_string fault) w what
                in
                let forked = step fork vectors.(w) in
                if forked <> step full vectors.(w) then Alcotest.fail (label "outcome");
                match forked with
                | `Wave _ ->
                    if Rail_sim.rails fork <> Rail_sim.rails full then
                      Alcotest.fail (label "rails");
                    if Rail_sim.phases fork <> Rail_sim.phases full then
                      Alcotest.fail (label "phases");
                    if not (Rail_sim.same_state fork full) then Alcotest.fail (label "same_state");
                    if not (Rail_sim.same_state (Rail_sim.copy fork ~hooks) full) then
                      Alcotest.fail (label "copy");
                    go (w + 1)
                | _ -> ()
              end
            in
            go first
          end)
        faults)
    [ "b01"; "b05"; "b12" ]

(* Words [f ()] allocates, minor and directly major. *)
let allocated f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor = Gc.minor_words () -. minor0 and _, promoted1, major1 = Gc.counters () in
  minor +. (major1 -. major0 -. (promoted1 -. promoted0))

(* A fork and one differential wave of a fault at one gate allocate a few
   words on b15 as on b01: the fork works in its trace's state, and the
   wave touches its divergent set and the sinks alone. *)
let test_fork_allocation () =
  List.iter
    (fun (id, build) ->
      let pl = Pl.of_netlist (Ee_rtl.Techmap.run_rtl (build ())) in
      let rng = Ee_util.Prng.create 5 in
      let width = Array.length (Pl.source_ids pl) in
      let vectors = Array.init 3 (fun _ -> Ee_util.Prng.bool_vector rng width) in
      let trace = traced pl vectors in
      let gates = Pl.gates pl in
      let luts =
        List.filter
          (fun i -> match gates.(i).Pl.kind with Pl.Gate _ -> true | _ -> false)
          (List.init (Array.length gates) Fun.id)
      in
      let gate = List.nth luts (List.length luts / 2) in
      (* Pinned to the value the gate drives on it in wave 1: the hook runs
         on every latch of the gate and changes none. *)
      let value = (Rail_sim.traced_rails trace ~wave:1 gate).Ee_phased.Ledr.v in
      let hooks = Fault.hooks (Fault.Stuck_rail { gate; rail = Fault.V; value }) in
      let once () =
        let sim = Rail_sim.fork trace ~wave:1 ~site:gate ~last:max_int ~hooks in
        Rail_sim.apply sim vectors.(1)
      in
      ignore (once ());
      let words = allocated once in
      if words > 256. then
        Alcotest.failf "%s (%d gates): fork and one wave allocated %.0f words (bound 256)" id
          (Array.length gates) words)
    Ee_bench_circuits.Itc99.[ ("b01", b01); ("b05", b05); ("b15", b15) ]

(* Forks of one trace share its state: a newer fork supersedes an older
   one, which then refuses every call but [reset]. *)
let test_superseded_fork () =
  let a = artifact "b01" in
  let pl = a.Ee_report.Pipeline.pl_ee in
  let width = Array.length (Pl.source_ids pl) in
  let vectors =
    Array.of_list (fst (vectors_and_golden a.Ee_report.Pipeline.netlist ~width ~waves:4 ~seed:1))
  in
  let trace = traced pl vectors in
  let fork () = Rail_sim.fork trace ~wave:1 ~site:0 ~last:1 ~hooks:Rail_sim.no_hooks in
  let old = fork () in
  ignore (Rail_sim.apply old vectors.(1));
  let current = fork () in
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s on a superseded fork was accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("apply", fun () -> ignore (Rail_sim.apply old vectors.(2)));
      ("diverged", fun () -> ignore (Rail_sim.diverged old));
      ("rails", fun () -> ignore (Rail_sim.rails old));
      ("phases", fun () -> ignore (Rail_sim.phases old));
      ("copy", fun () -> ignore (Rail_sim.copy old ~hooks:Rail_sim.no_hooks));
      ("same_state", fun () -> ignore (Rail_sim.same_state old current));
    ];
  ignore (Rail_sim.apply current vectors.(1));
  Alcotest.(check bool) "the current fork runs" false (Rail_sim.diverged current);
  (* A reset fork is a whole-netlist simulator with state of its own. *)
  Rail_sim.reset old;
  let fresh = Rail_sim.create pl in
  Alcotest.(check bool) "reset superseded fork is in the initial state" true
    (Rail_sim.same_state old fresh);
  ignore (Rail_sim.apply old vectors.(0));
  ignore (Rail_sim.apply current vectors.(2));
  ignore (Rail_sim.apply fresh vectors.(0));
  Alcotest.(check bool) "and runs apart from the current fork" true (Rail_sim.same_state old fresh)

let suite =
  ( "fault",
    [
      Alcotest.test_case "campaign classifies every fault; schedules agree" `Quick
        test_campaign_classifies_everything;
      Alcotest.test_case "wrong-output class is exactly v-rail faults" `Slow
        test_wrong_output_class;
      Alcotest.test_case "single-fault taxonomy" `Quick test_single_fault_taxonomy;
      Alcotest.test_case "suppressing EE triggers is harmless" `Quick
        test_trigger_suppression_harmless;
      Alcotest.test_case "token audit: loss starves, dup trips safety" `Quick test_token_audit;
      Alcotest.test_case "JSON/CSV reports well-formed" `Quick test_report_rendering;
      Alcotest.test_case "forked campaign = cold one-fault runs" `Quick test_forked_matches_cold;
      Alcotest.test_case "pinned b01 report digest" `Quick test_pinned_b01_report;
      Alcotest.test_case "pinned b03 and b08 report digests" `Quick test_pinned_b03_b08_reports;
      Alcotest.test_case "schedule checks run every wave, never raise" `Quick
        test_schedule_checks_run_every_wave;
      Alcotest.test_case "campaign without checkpoints runs cold" `Quick
        test_campaign_without_checkpoints;
      Alcotest.test_case "token audit rejects max_arcs < 1" `Quick test_token_audit_bounds;
      Alcotest.test_case "fault wave windows" `Quick test_fault_windows;
      Alcotest.test_case "fork state = full wave of a copy" `Quick test_fork_state_view;
      Alcotest.test_case "fork and wave allocation bounded" `Quick test_fork_allocation;
      Alcotest.test_case "superseded fork refused" `Quick test_superseded_fork;
    ] )
