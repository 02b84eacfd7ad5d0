(* Quickstart: the paper's running example, end to end.

   Builds a one-gate netlist computing the full-adder carry-out
   c(a+b) + ab, maps it to phased logic, searches for trigger functions,
   attaches the best early-evaluation pair (Figure 2) and shows the token
   timing with and without EE. *)

module Lut4 = Ee_logic.Lut4
module Netlist = Ee_netlist.Netlist
module Pl = Ee_phased.Pl
module Trigger = Ee_core.Trigger

let () =
  print_endline "== Quickstart: early evaluation on the full-adder carry ==\n";

  (* 1. The master function (paper Table 1).  Inputs: a=2, b=1, c=0. *)
  let carry = Trigger.full_adder_carry in
  Printf.printf "master truth table (minterm 15..0): %s\n" (Lut4.to_string carry);

  (* 2. Enumerate every candidate trigger function (paper Section 3). *)
  print_endline "\ncandidate triggers (subset bitmask over inputs c=1,b=2,a=4):";
  List.iter
    (fun c ->
      Printf.printf "  subset=%x  coverage=%2.0f%%  trigger=%s\n" c.Trigger.subset
        c.Trigger.coverage (Lut4.to_string c.Trigger.func))
    (Trigger.candidates carry);

  (* 3. A tiny netlist: carry LUT fed by inputs a, b and a "late" carry-in
     chain of two buffer LUTs, so that c arrives two gate delays after a
     and b — the situation the cost function rewards. *)
  let b = Netlist.builder () in
  let a_in = Netlist.add_input b "a" in
  let b_in = Netlist.add_input b "b" in
  let c_in = Netlist.add_input b "cin" in
  let buf1 = Netlist.add_lut b (Lut4.var 0) [| c_in |] in
  let buf2 = Netlist.add_lut b (Lut4.var 0) [| buf1 |] in
  (* carry LUT fanin order: position 0 = c (late), 1 = b, 2 = a. *)
  let carry_lut = Netlist.add_lut b carry [| buf2; b_in; a_in |] in
  Netlist.set_output b "cout" carry_lut;
  let nl = Netlist.finalize b in
  Printf.printf "\nnetlist: %s\n" (Netlist.stats_string nl);

  (* 4. Map to phased logic and attach the best EE pair. *)
  let pl = Pl.of_netlist nl in
  let pl_ee, report = Ee_core.Synth.run pl in
  List.iter
    (fun (c : Ee_core.Synth.gate_choice) ->
      Printf.printf
        "EE pair: master gate %d, trigger subset %x, coverage %.0f%%, Mmax=%d Tmax=%d, cost=%.1f\n"
        c.Ee_core.Synth.master c.Ee_core.Synth.chosen.Trigger.subset
        c.Ee_core.Synth.chosen.Trigger.coverage c.Ee_core.Synth.m_max c.Ee_core.Synth.t_max
        c.Ee_core.Synth.cost)
    report.Ee_core.Synth.inserted;

  (* 5. The marked-graph equivalents are live and safe (paper Section 2). *)
  let live_safe pl =
    let mg = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"quickstart" pl) in
    Ee_markedgraph.Marked_graph.is_live mg && Ee_markedgraph.Marked_graph.is_safe mg
  in
  Printf.printf "\nmarked graph live+safe: without EE %b, with EE %b\n" (live_safe pl)
    (live_safe pl_ee);

  (* 6. Token timing per input vector: EE fires the carry early whenever
     a and b agree (generate or kill), without waiting for the late c. *)
  print_endline "\nwave timing (gate_delay = 1.0, ee_overhead = 0.25):";
  print_endline "  a b c   cout   t(no EE)  t(EE)";
  let sim = Ee_sim.Sim.create pl and sim_ee = Ee_sim.Sim.create pl_ee in
  List.iter
    (fun (a, bb, c) ->
      let vec = [| a; bb; c |] in
      let w = Ee_sim.Sim.apply sim vec in
      let w' = Ee_sim.Sim.apply sim_ee vec in
      assert (w.Ee_sim.Sim.outputs = w'.Ee_sim.Sim.outputs);
      Printf.printf "  %d %d %d     %d     %6.2f   %6.2f%s\n" (Bool.to_int a)
        (Bool.to_int bb) (Bool.to_int c)
        (Bool.to_int w.Ee_sim.Sim.outputs.(0))
        w.Ee_sim.Sim.output_time w'.Ee_sim.Sim.output_time
        (if w'.Ee_sim.Sim.early_fires > 0 then "   <- early" else ""))
    [
      (false, false, false);
      (false, false, true);
      (false, true, false);
      (false, true, true);
      (true, false, true);
      (true, true, false);
      (true, true, true);
    ];
  print_endline "\nWhen a = b the trigger (ab + a'b') fires and the output settles early;";
  print_endline "when a <> b the carry must wait for the late carry-in, plus the small";
  print_endline "EE control overhead — the trade-off the paper's Table 3 reports."
