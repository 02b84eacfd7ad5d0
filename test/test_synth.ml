module Synth = Ee_core.Synth
module Pl = Ee_phased.Pl
module Trigger = Ee_core.Trigger
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

let carry_chain_netlist n =
  (* A ripple of carry gates: maj(a_i, b_i, carry_{i-1}). *)
  let b = Netlist.builder () in
  let a = Array.init n (fun i -> Netlist.add_input b (Printf.sprintf "a%d" i)) in
  let bb = Array.init n (fun i -> Netlist.add_input b (Printf.sprintf "b%d" i)) in
  let cin = Netlist.add_input b "cin" in
  let carry = ref cin in
  for i = 0 to n - 1 do
    carry := Netlist.add_lut b Trigger.full_adder_carry [| !carry; bb.(i); a.(i) |]
  done;
  Netlist.set_output b "cout" !carry;
  Netlist.finalize b

let test_plan_on_carry_chain () =
  let pl = Pl.of_netlist (carry_chain_netlist 6) in
  let choices = Synth.plan pl in
  (* All but the first stage can early-evaluate (the first has uniform
     arrivals). *)
  Alcotest.(check int) "five pairs" 5 (List.length choices);
  List.iter
    (fun (c : Synth.gate_choice) ->
      Alcotest.(check bool) "Tmax < Mmax" true (c.Synth.t_max < c.Synth.m_max);
      Alcotest.(check (float 1e-9)) "coverage 50" 50. c.Synth.chosen.Trigger.coverage;
      (* Chosen subset is the {a,b} pair — positions 1 and 2. *)
      Alcotest.(check int) "subset {1,2}" 0b110 c.Synth.chosen.Trigger.subset)
    choices

let test_cost_increases_down_the_chain () =
  let pl = Pl.of_netlist (carry_chain_netlist 6) in
  let costs = List.map (fun c -> c.Synth.cost) (Synth.plan pl) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "later stages score higher" true (ascending costs)

let test_threshold_prunes () =
  let pl = Pl.of_netlist (carry_chain_netlist 6) in
  let count threshold =
    List.length (Synth.plan ~options:{ Synth.default_options with threshold } pl)
  in
  Alcotest.(check int) "threshold 0 keeps all" 5 (count 0.);
  Alcotest.(check bool) "higher threshold keeps fewer" true (count 200. < 5);
  Alcotest.(check int) "huge threshold keeps none" 0 (count 1e9)

let test_threshold_monotone () =
  let b = Ee_bench_circuits.Itc99.find "b05" in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let counts =
    List.map
      (fun threshold ->
        List.length (Synth.plan ~options:{ Synth.default_options with threshold } pl))
      [ 0.; 25.; 100.; 400. ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone pruning" true (non_increasing counts)

let test_min_coverage_filter () =
  let pl = Pl.of_netlist (carry_chain_netlist 4) in
  let choices =
    Synth.plan ~options:{ Synth.default_options with min_coverage = 60. } pl
  in
  Alcotest.(check int) "nothing reaches 60% on maj gates" 0 (List.length choices)

let test_run_report_consistency () =
  let pl = Pl.of_netlist (carry_chain_netlist 5) in
  let pl_ee, report = Synth.run pl in
  Alcotest.(check int) "ee gates = inserted" (List.length report.Synth.inserted)
    report.Synth.ee_gates;
  Alcotest.(check int) "ee gates in netlist" report.Synth.ee_gates (Pl.ee_gate_count pl_ee);
  Alcotest.(check int) "pl gates preserved" (Pl.pl_gate_count pl) report.Synth.pl_gates;
  let expected_area =
    100. *. float_of_int report.Synth.ee_gates /. float_of_int report.Synth.pl_gates
  in
  Alcotest.(check (float 1e-9)) "area percent" expected_area report.Synth.area_increase_percent;
  (* Masters are unique. *)
  let masters = List.map (fun c -> c.Synth.master) report.Synth.inserted in
  Alcotest.(check int) "unique masters" (List.length masters)
    (List.length (List.sort_uniq compare masters))

let test_function_preserved_on_benchmarks () =
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
      let pl = Pl.of_netlist nl in
      let pl_ee, _ = Synth.run pl in
      Alcotest.(check bool) (id ^ " equivalent") true
        (Ee_sim.Sim.equiv_random pl_ee nl ~vectors:120 ~seed:77))
    [ "b01"; "b03"; "b06"; "b09"; "b11"; "b13" ]

let test_live_safe_preserved () =
  List.iter
    (fun id ->
      let b = Ee_bench_circuits.Itc99.find id in
      let a = Ee_report.Pipeline.build b in
      match Ee_report.Pipeline.check_live_safe a with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ "b01"; "b02"; "b05"; "b08"; "b10"; "b12" ]

let test_coverage_only_changes_choices () =
  (* On the carry chain the weighting does not change the winner (only one
     pair subset is viable), but globally the two policies may differ; at
     minimum they must both produce valid plans. *)
  let b = Ee_bench_circuits.Itc99.find "b07" in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let weighted = Synth.plan pl in
  let coverage_only =
    Synth.plan ~options:{ Synth.default_options with weighting = Ee_core.Cost.Coverage_only } pl
  in
  Alcotest.(check bool) "both non-empty" true
    (weighted <> [] && coverage_only <> []);
  List.iter
    (fun (c : Synth.gate_choice) ->
      Alcotest.(check bool) "eligibility holds regardless" true (c.Synth.t_max < c.Synth.m_max))
    coverage_only

let test_trigger_sharing () =
  (* A ripple chain has many structurally distinct triggers, so build a
     netlist where several masters share the same subset sources: one pair
     (a, b) feeding several carry-style gates at different depths. *)
  let b = Netlist.builder () in
  let a = Netlist.add_input b "a" in
  let bb = Netlist.add_input b "b" in
  let c = Netlist.add_input b "c" in
  let buf = Netlist.add_lut b (Lut4.var 0) [| c |] in
  let late1 = Netlist.add_lut b (Lut4.var 0) [| buf |] in
  let m1 = Netlist.add_lut b Trigger.full_adder_carry [| late1; bb; a |] in
  let m2 = Netlist.add_lut b Trigger.full_adder_carry [| m1; bb; a |] in
  Netlist.set_output b "o1" m1;
  Netlist.set_output b "o2" m2;
  let nl = Netlist.finalize b in
  let pl = Pl.of_netlist nl in
  let unshared_pl, unshared = Synth.run pl in
  let shared_pl, shared =
    Synth.run ~options:{ Synth.default_options with share_triggers = true } pl
  in
  Alcotest.(check int) "two masters" 2 (List.length unshared.Synth.inserted);
  Alcotest.(check int) "unshared: two triggers" 2 unshared.Synth.ee_gates;
  Alcotest.(check int) "shared: one trigger" 1 shared.Synth.ee_gates;
  Alcotest.(check int) "shared report masters" 2 (List.length shared.Synth.inserted);
  (* Function and safety preserved either way. *)
  Alcotest.(check bool) "unshared equivalent" true
    (Ee_sim.Sim.equiv_random unshared_pl nl ~vectors:100 ~seed:5);
  Alcotest.(check bool) "shared equivalent" true
    (Ee_sim.Sim.equiv_random shared_pl nl ~vectors:100 ~seed:5);
  let mg = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" shared_pl) in
  Alcotest.(check bool) "shared live+safe" true
    (Ee_markedgraph.Marked_graph.is_live mg && Ee_markedgraph.Marked_graph.is_safe mg);
  (* Same timing: sharing merges identical gates only. *)
  let r1 = Ee_sim.Sim.run_random unshared_pl ~vectors:50 ~seed:9 in
  let r2 = Ee_sim.Sim.run_random shared_pl ~vectors:50 ~seed:9 in
  Alcotest.(check (float 1e-9)) "same avg settle" r1.Ee_sim.Sim.avg_settle_time
    r2.Ee_sim.Sim.avg_settle_time

let test_sharing_on_benchmark () =
  let nl = Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find "b04").Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let _, unshared = Synth.run pl in
  let shared_pl, shared =
    Synth.run ~options:{ Synth.default_options with share_triggers = true } pl
  in
  Alcotest.(check bool) "sharing never increases triggers" true
    (shared.Synth.ee_gates <= unshared.Synth.ee_gates);
  Alcotest.(check bool) "still equivalent" true
    (Ee_sim.Sim.equiv_random shared_pl nl ~vectors:60 ~seed:3)

(* Every selection policy ends in the same attach-and-report step.  Its
   output on b01-b13, pinned: per policy and circuit the report's eligible,
   PL and EE gate counts, its area percent (bit for bit), and the MD5s of
   the inserted choices and of the attached netlist ([Marshal],
   [No_sharing]). *)
let policy_pins =
  [
    ("b01", "eq1", 26, 33, 17, 0x1.9c1f07c1f07c2p+5, "7b62fbaefdb022c6d514c29dff6370dd", "f4df8976761676f982e50fd9cd521b14");
    ("b01", "eq1-shared", 26, 33, 14, 0x1.5364d9364d936p+5, "7b62fbaefdb022c6d514c29dff6370dd", "55fe89793d0951907e74546ce060bad1");
    ("b01", "budget0", 26, 33, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "211f5d27a0e2e16c416e352463a87736");
    ("b01", "budget5", 26, 33, 5, 0x1.e4d9364d9364ep+3, "b3a519ac81fcb06b11f45f8c94006724", "69012f26edc41904ea0d3969f0b255b7");
    ("b01", "budget1000", 26, 33, 17, 0x1.9c1f07c1f07c2p+5, "7b62fbaefdb022c6d514c29dff6370dd", "f4df8976761676f982e50fd9cd521b14");
    ("b01", "mcr", 26, 33, 3, 0x1.22e8ba2e8ba2fp+3, "42e818f131076283cad322ef36629704", "50bfa7964e2cc7db4cf9fee98feb726f");
    ("b01", "search", 26, 33, 6, 0x1.22e8ba2e8ba2fp+4, "42e818f131076283cad322ef36629704", "6de816394eafdfe3fe18977e32508935");
    ("b02", "eq1", 7, 13, 1, 0x1.ec4ec4ec4ec4fp+2, "ec6b289ffab65620df0a5109deeba136", "ca2dcc7e7ba1cabc8053dd3034a19ac7");
    ("b02", "eq1-shared", 7, 13, 1, 0x1.ec4ec4ec4ec4fp+2, "ec6b289ffab65620df0a5109deeba136", "ca2dcc7e7ba1cabc8053dd3034a19ac7");
    ("b02", "budget0", 7, 13, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "59f63a9ac46c4bb323f2aaf41ff920f1");
    ("b02", "budget5", 7, 13, 1, 0x1.ec4ec4ec4ec4fp+2, "ec6b289ffab65620df0a5109deeba136", "ca2dcc7e7ba1cabc8053dd3034a19ac7");
    ("b02", "budget1000", 7, 13, 1, 0x1.ec4ec4ec4ec4fp+2, "ec6b289ffab65620df0a5109deeba136", "ca2dcc7e7ba1cabc8053dd3034a19ac7");
    ("b02", "mcr", 7, 13, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "59f63a9ac46c4bb323f2aaf41ff920f1");
    ("b02", "search", 7, 13, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "59f63a9ac46c4bb323f2aaf41ff920f1");
    ("b03", "eq1", 73, 93, 47, 0x1.944d1344d1345p+5, "79f83d8ab2cc4efe7ab06473c3ea0836", "c90e6273e213ecbfd6f24a34634d40af");
    ("b03", "eq1-shared", 73, 93, 39, 0x1.4f7bdef7bdef8p+5, "79f83d8ab2cc4efe7ab06473c3ea0836", "66a846a0bebcc27ccbca7406d4403c78");
    ("b03", "budget0", 73, 93, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "428c0a00ebcea66cd75b327d5291af8d");
    ("b03", "budget5", 73, 93, 5, 0x1.5816058160581p+2, "c78edc6b513b7e8428c6a4f3e13ee018", "f5e6990f480fb1de1f05bfd44acca064");
    ("b03", "budget1000", 73, 93, 47, 0x1.944d1344d1345p+5, "79f83d8ab2cc4efe7ab06473c3ea0836", "c90e6273e213ecbfd6f24a34634d40af");
    ("b03", "mcr", 73, 93, 1, 0x1.1344d1344d135p+0, "7d8722f466c5da33be619f444a8f23d9", "6353ca3d6cbd63cfb2c14406b6fd32ad");
    ("b03", "search", 73, 93, 4, 0x1.1344d1344d135p+2, "7d8722f466c5da33be619f444a8f23d9", "56e8857727d6b7956eecec46b89b29d6");
    ("b04", "eq1", 270, 330, 166, 0x1.926c9b26c9b27p+5, "92babf19c64377e36a087258a02afad6", "8004c82d3ef3267980a138f6e154042e");
    ("b04", "eq1-shared", 270, 330, 163, 0x1.8b26c9b26c9b3p+5, "92babf19c64377e36a087258a02afad6", "3375eae517f9fe43e2417e481acb405e");
    ("b04", "budget0", 270, 330, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "34af0e8cafc422e1fa65e4df61b05078");
    ("b04", "budget5", 270, 330, 5, 0x1.83e0f83e0f83ep+0, "98f43dfcdc551e2e58dd9d6c85340f05", "1f1723e464b0f4a89890967e7067903a");
    ("b04", "budget1000", 270, 330, 166, 0x1.926c9b26c9b27p+5, "92babf19c64377e36a087258a02afad6", "8004c82d3ef3267980a138f6e154042e");
    ("b04", "mcr", 270, 330, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "34af0e8cafc422e1fa65e4df61b05078");
    ("b04", "search", 270, 330, 4, 0x1.364d9364d9365p+0, "c5e35411975aef719f04a574b4ff5940", "4a150a6fcb7f6b7e69c8807e94a4b645");
    ("b05", "eq1", 110, 151, 79, 0x1.a28b05160a2c1p+5, "b74cbc0ce8071248f32f645c89a8a18b", "af6455174b95fc5855298e0a5a62fa1c");
    ("b05", "eq1-shared", 110, 151, 48, 0x1.fc9bf937f26ffp+4, "b74cbc0ce8071248f32f645c89a8a18b", "1605820a48b1d108a5dbb17cc831a643");
    ("b05", "budget0", 110, 151, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "db5a08193d7bd34bd3bbf62f3c2d7daa");
    ("b05", "budget5", 110, 151, 5, 0x1.a7d74fae9f5d4p+1, "7c2b0b6d4f44921a9e1accd4588d543e", "28187ce59d8ff368ddb36cd026a0a421");
    ("b05", "budget1000", 110, 151, 79, 0x1.a28b05160a2c1p+5, "b74cbc0ce8071248f32f645c89a8a18b", "af6455174b95fc5855298e0a5a62fa1c");
    ("b05", "mcr", 110, 151, 8, 0x1.5312a6254c4aap+2, "96ce8224d6bde62c084fe3103f7f9ddd", "d66d0a668760c1c6bae4a25322b1ec91");
    ("b05", "search", 110, 151, 12, 0x1.fc9bf937f26ffp+2, "96ce8224d6bde62c084fe3103f7f9ddd", "e129e61ed6bd43901d461a28ffb645f0");
    ("b06", "eq1", 9, 11, 4, 0x1.22e8ba2e8ba2fp+5, "088550c92e7299854936c53cc8d6570d", "7e0368ccbe5ed9bbf201485ff3d61e56");
    ("b06", "eq1-shared", 9, 11, 4, 0x1.22e8ba2e8ba2fp+5, "088550c92e7299854936c53cc8d6570d", "7e0368ccbe5ed9bbf201485ff3d61e56");
    ("b06", "budget0", 9, 11, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "8af4137c4bb1b698dbcf54fc5d1a1fc9");
    ("b06", "budget5", 9, 11, 4, 0x1.22e8ba2e8ba2fp+5, "088550c92e7299854936c53cc8d6570d", "7e0368ccbe5ed9bbf201485ff3d61e56");
    ("b06", "budget1000", 9, 11, 4, 0x1.22e8ba2e8ba2fp+5, "088550c92e7299854936c53cc8d6570d", "7e0368ccbe5ed9bbf201485ff3d61e56");
    ("b06", "mcr", 9, 11, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "8af4137c4bb1b698dbcf54fc5d1a1fc9");
    ("b06", "search", 9, 11, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "8af4137c4bb1b698dbcf54fc5d1a1fc9");
    ("b07", "eq1", 182, 210, 91, 0x1.5aaaaaaaaaaabp+5, "a645c582652cabc0bbd2a726bf540efc", "f5a9eedb93976da0c26289c39b8f1a50");
    ("b07", "eq1-shared", 182, 210, 69, 0x1.06db6db6db6dbp+5, "a645c582652cabc0bbd2a726bf540efc", "f504e2b7416c4a32345f5375c77ad072");
    ("b07", "budget0", 182, 210, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "80cd98cdbf6d19c3909da92a9d4e071d");
    ("b07", "budget5", 182, 210, 5, 0x1.30c30c30c30c3p+1, "0e915d951a9242a0ee93a2aa849dadde", "59d6b49d9dc922cc78ece6dc337aee23");
    ("b07", "budget1000", 182, 210, 91, 0x1.5aaaaaaaaaaabp+5, "a645c582652cabc0bbd2a726bf540efc", "f5a9eedb93976da0c26289c39b8f1a50");
    ("b07", "mcr", 182, 210, 12, 0x1.6db6db6db6db7p+2, "8e79822856572bdceeb62b64ace00e6b", "dccc543a2d7ec2b424a5735bd89304a8");
    ("b07", "search", 182, 210, 15, 0x1.c924924924924p+2, "8e79822856572bdceeb62b64ace00e6b", "d5b87b401868071853f5ccef87379503");
    ("b08", "eq1", 62, 84, 23, 0x1.b618618618619p+4, "011bc2532da57597aa550679917b4068", "1768638f17f5c08e4d928b2983c6643a");
    ("b08", "eq1-shared", 62, 84, 23, 0x1.b618618618619p+4, "011bc2532da57597aa550679917b4068", "1768638f17f5c08e4d928b2983c6643a");
    ("b08", "budget0", 62, 84, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "bd36448b6468e68c7e43eaf07342cab4");
    ("b08", "budget5", 62, 84, 5, 0x1.7cf3cf3cf3cf3p+2, "7491df677cc63ba3714b74a7ad90e99e", "ee5d6116213df1b271779998b0cfbc2d");
    ("b08", "budget1000", 62, 84, 23, 0x1.b618618618619p+4, "011bc2532da57597aa550679917b4068", "1768638f17f5c08e4d928b2983c6643a");
    ("b08", "mcr", 62, 84, 1, 0x1.30c30c30c30c3p+0, "71f7a67144176a3a6f7cfa229ab07883", "931652c2ff85b2cbc41b7828d1d89a42");
    ("b08", "search", 62, 84, 1, 0x1.30c30c30c30c3p+0, "71f7a67144176a3a6f7cfa229ab07883", "931652c2ff85b2cbc41b7828d1d89a42");
    ("b09", "eq1", 30, 49, 14, 0x1.c924924924924p+4, "32eec418beef8a62f342187b8c5f6ec3", "18bd17e53d43d28cd99c80290f91073e");
    ("b09", "eq1-shared", 30, 49, 14, 0x1.c924924924924p+4, "32eec418beef8a62f342187b8c5f6ec3", "18bd17e53d43d28cd99c80290f91073e");
    ("b09", "budget0", 30, 49, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "8334aedb0c90e3c4bfc136935af90053");
    ("b09", "budget5", 30, 49, 5, 0x1.4687d6343eb1ap+3, "426e82ad7a1a9b0e71fd9debe57f00bd", "b614d80b0524d637e161c8dbc7f85df8");
    ("b09", "budget1000", 30, 49, 14, 0x1.c924924924924p+4, "32eec418beef8a62f342187b8c5f6ec3", "18bd17e53d43d28cd99c80290f91073e");
    ("b09", "mcr", 30, 49, 7, 0x1.c924924924924p+3, "d8205d7268f9b50613746e1f8d6fab4a", "6889250d0760ceb816bd402e9fec45ec");
    ("b09", "search", 30, 49, 7, 0x1.c924924924924p+3, "d8205d7268f9b50613746e1f8d6fab4a", "6889250d0760ceb816bd402e9fec45ec");
    ("b10", "eq1", 70, 86, 34, 0x1.3c47711dc4771p+5, "6a1deea6010a6c38ab18d1c80aa6415f", "1a441e96a829f0f6116b8272bc2279d2");
    ("b10", "eq1-shared", 70, 86, 34, 0x1.3c47711dc4771p+5, "6a1deea6010a6c38ab18d1c80aa6415f", "1a441e96a829f0f6116b8272bc2279d2");
    ("b10", "budget0", 70, 86, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "8ea4c3469454768effd59538e9dd5558");
    ("b10", "budget5", 70, 86, 5, 0x1.7417d05f417dp+2, "17768b95c5e28bcd2bb82f8055598dc1", "2a577c9d72f4148302b5cce6ce9e976b");
    ("b10", "budget1000", 70, 86, 34, 0x1.3c47711dc4771p+5, "6a1deea6010a6c38ab18d1c80aa6415f", "1a441e96a829f0f6116b8272bc2279d2");
    ("b10", "mcr", 70, 86, 3, 0x1.be82fa0be82fap+1, "9e226f4b8a94ae8a2ecaf1873d0c19c2", "6b852237f1ef3b5d118609930bc4a920");
    ("b10", "search", 70, 86, 3, 0x1.be82fa0be82fap+1, "9e226f4b8a94ae8a2ecaf1873d0c19c2", "6b852237f1ef3b5d118609930bc4a920");
    ("b11", "eq1", 60, 76, 24, 0x1.f9435e50d7943p+4, "eb77f0b02bab23b75b39e2dff6d2c9ce", "7bdf7b0d11213c35f2aa9c06fc41ed50");
    ("b11", "eq1-shared", 60, 76, 24, 0x1.f9435e50d7943p+4, "eb77f0b02bab23b75b39e2dff6d2c9ce", "7bdf7b0d11213c35f2aa9c06fc41ed50");
    ("b11", "budget0", 60, 76, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "57249c1afe26fdba348911319adba5f8");
    ("b11", "budget5", 60, 76, 5, 0x1.a50d79435e50dp+2, "fb0263686ef860d945d1ed68ef50a542", "a1b92f427683c8993f14535b56700ad7");
    ("b11", "budget1000", 60, 76, 24, 0x1.f9435e50d7943p+4, "eb77f0b02bab23b75b39e2dff6d2c9ce", "7bdf7b0d11213c35f2aa9c06fc41ed50");
    ("b11", "mcr", 60, 76, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "57249c1afe26fdba348911319adba5f8");
    ("b11", "search", 60, 76, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "57249c1afe26fdba348911319adba5f8");
    ("b12", "eq1", 103, 141, 62, 0x1.5fc5e694e1228p+5, "001b096345c06a64490aa273a0e996d0", "84bf269a403cd49ff1e205d0fb4363b6");
    ("b12", "eq1-shared", 103, 141, 53, 0x1.2cb58f6ec0743p+5, "001b096345c06a64490aa273a0e996d0", "e8f8a174674006fa670280c5e47ac7e7");
    ("b12", "budget0", 103, 141, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "2b2eafa1b605fcbec988b4b2b379f41e");
    ("b12", "budget5", 103, 141, 5, 0x1.c5e694e1227f2p+1, "8aecade4f16ea438cc983cf2766b0bd7", "af53c8e283b417a5d281d7ed4bae5e4e");
    ("b12", "budget1000", 103, 141, 62, 0x1.5fc5e694e1228p+5, "001b096345c06a64490aa273a0e996d0", "84bf269a403cd49ff1e205d0fb4363b6");
    ("b12", "mcr", 103, 141, 6, 0x1.10572620ae4c4p+2, "2ff0288b9702a4232a6b3f789d42759e", "0f61ee3e32db421b3de451a34227656e");
    ("b12", "search", 103, 141, 9, 0x1.9882b93105726p+2, "2ff0288b9702a4232a6b3f789d42759e", "a0179f404e3561fbb4433b6cf70c6f4f");
    ("b13", "eq1", 96, 118, 36, 0x1.e822b63cbeea5p+4, "1f206e6535fb4cb62489887852440474", "821784b78aa9f1989ebea19dfbce1503");
    ("b13", "eq1-shared", 96, 118, 36, 0x1.e822b63cbeea5p+4, "1f206e6535fb4cb62489887852440474", "821784b78aa9f1989ebea19dfbce1503");
    ("b13", "budget0", 96, 118, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "afac357f99c0d3716feff19ea097cef7");
    ("b13", "budget5", 96, 118, 5, 0x1.0f2fba9386822p+2, "e70bbd493f4f8e4500b09e38c3d03381", "c0e507309d3b06d6a1e964472a373964");
    ("b13", "budget1000", 96, 118, 36, 0x1.e822b63cbeea5p+4, "1f206e6535fb4cb62489887852440474", "821784b78aa9f1989ebea19dfbce1503");
    ("b13", "mcr", 96, 118, 0, 0x0p+0, "c5e35411975aef719f04a574b4ff5940", "afac357f99c0d3716feff19ea097cef7");
    ("b13", "search", 96, 118, 1, 0x1.b1e5f75270d04p-1, "c5e35411975aef719f04a574b4ff5940", "6198ef188fa4231550ac65cf3c1a607b");
  ]

let test_policy_pins () =
  let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ])) in
  let policies pl =
    [
      ("eq1", fun () -> Synth.run pl);
      ( "eq1-shared",
        fun () -> Synth.run ~options:{ Synth.default_options with share_triggers = true } pl );
      ("budget0", fun () -> Ee_core.Budget.run pl ~budget:0);
      ("budget5", fun () -> Ee_core.Budget.run pl ~budget:5);
      ("budget1000", fun () -> Ee_core.Budget.run pl ~budget:1000);
      ("mcr", fun () -> Ee_core.Mcr_select.run pl);
      ( "search",
        fun () ->
          let pl', r = Ee_search.Search_select.run pl in
          (pl', r.Ee_search.Search_select.synth) );
    ]
  in
  let pl_of = Hashtbl.create 16 in
  List.iter
    (fun (id, policy, eligible, pl_gates, ee_gates, area, inserted, attached) ->
      let pl =
        match Hashtbl.find_opt pl_of id with
        | Some pl -> pl
        | None ->
            let pl = Pl.of_netlist (Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find id).build ())) in
            Hashtbl.add pl_of id pl;
            pl
      in
      let pl', r = (List.assoc policy (policies pl)) () in
      let tag what = Printf.sprintf "%s %s: %s" id policy what in
      Alcotest.(check int) (tag "eligible_gates") eligible r.Synth.eligible_gates;
      Alcotest.(check int) (tag "pl_gates") pl_gates r.Synth.pl_gates;
      Alcotest.(check int) (tag "ee_gates") ee_gates r.Synth.ee_gates;
      Alcotest.(check string) (tag "area_increase_percent") (Printf.sprintf "%h" area)
        (Printf.sprintf "%h" r.Synth.area_increase_percent);
      Alcotest.(check string) (tag "inserted") inserted (md5 r.Synth.inserted);
      Alcotest.(check string) (tag "attached netlist") attached (md5 pl'))
    policy_pins

let suite =
  ( "synth",
    [
      Alcotest.test_case "plan on carry chain" `Quick test_plan_on_carry_chain;
      Alcotest.test_case "cost increases down the chain" `Quick test_cost_increases_down_the_chain;
      Alcotest.test_case "threshold prunes" `Quick test_threshold_prunes;
      Alcotest.test_case "threshold monotone" `Quick test_threshold_monotone;
      Alcotest.test_case "min coverage filter" `Quick test_min_coverage_filter;
      Alcotest.test_case "run report consistency" `Quick test_run_report_consistency;
      Alcotest.test_case "function preserved (benchmarks)" `Quick test_function_preserved_on_benchmarks;
      Alcotest.test_case "live+safe preserved" `Quick test_live_safe_preserved;
      Alcotest.test_case "coverage-only policy" `Quick test_coverage_only_changes_choices;
      Alcotest.test_case "trigger sharing" `Quick test_trigger_sharing;
      Alcotest.test_case "sharing on benchmark" `Quick test_sharing_on_benchmark;
      Alcotest.test_case "policy pins (b01-b13)" `Quick test_policy_pins;
    ] )
