(* Interchange-format flow: take a LUT netlist in BLIF (as produced by any
   synchronous synthesis tool), run the early-evaluation post-process, and
   emit the structural PL VHDL the paper's flow handed to its simulator.

   The circuit is a 4-bit ripple adder with registered output, written out
   as BLIF text right here so the example is self-contained. *)

let blif_text =
  {|.model regadd4
.inputs a0 a1 a2 a3 b0 b1 b2 b3
.outputs s0 s1 s2 s3 cout
# full-adder chain: maj carries, xor sums
.names a0 b0 x0
10 1
01 1
.names a0 b0 c0
11 1
.names a1 b1 c0 x1
100 1
010 1
001 1
111 1
.names a1 b1 c0 c1
11- 1
1-1 1
-11 1
.names a2 b2 c1 x2
100 1
010 1
001 1
111 1
.names a2 b2 c1 c2
11- 1
1-1 1
-11 1
.names a3 b3 c2 x3
100 1
010 1
001 1
111 1
.names a3 b3 c2 c3
11- 1
1-1 1
-11 1
.latch x0 s0 re NIL 0
.latch x1 s1 re NIL 0
.latch x2 s2 re NIL 0
.latch x3 s3 re NIL 0
.latch c3 cout re NIL 0
.end
|}

let () =
  print_endline "== BLIF -> early evaluation -> PL VHDL ==\n";
  let nl = Ee_frontend.Blif_in.of_string blif_text in
  Printf.printf "parsed netlist: %s\n" (Ee_netlist.Netlist.stats_string nl);

  let pl = Ee_phased.Pl.of_netlist nl in
  let pl_ee, report = Ee_core.Synth.run pl in
  Printf.printf "EE pairs inserted: %d (area +%.0f%%)\n" report.Ee_core.Synth.ee_gates
    report.Ee_core.Synth.area_increase_percent;
  List.iter
    (fun (c : Ee_core.Synth.gate_choice) ->
      Printf.printf "  master %2d: coverage %.0f%%, Mmax=%d Tmax=%d, cost %.1f\n"
        c.Ee_core.Synth.master c.Ee_core.Synth.chosen.Ee_core.Trigger.coverage
        c.Ee_core.Synth.m_max c.Ee_core.Synth.t_max c.Ee_core.Synth.cost)
    report.Ee_core.Synth.inserted;

  let base = Ee_sim.Sim.run_random pl ~vectors:200 ~seed:17 in
  let ee = Ee_sim.Sim.run_random pl_ee ~vectors:200 ~seed:17 in
  Printf.printf "\navg settle: %.2f -> %.2f gate delays (%.1f%% faster)\n"
    base.Ee_sim.Sim.avg_settle_time ee.Ee_sim.Sim.avg_settle_time
    (Ee_util.Stats.percent_change ~before:base.Ee_sim.Sim.avg_settle_time
       ~after:ee.Ee_sim.Sim.avg_settle_time);

  (* Round-trip sanity: export to BLIF and back; the paper's artifact, PL
     VHDL, goes to a file. *)
  let nl' = Ee_frontend.Blif_in.of_string (Ee_export.Blif.to_blif ~model:"regadd4" nl) in
  Printf.printf "BLIF round-trip: %s\n" (Ee_netlist.Netlist.stats_string nl');
  let vhdl = Ee_export.Vhdl.of_pl ~entity:"regadd4_pl" pl_ee in
  let file = Filename.temp_file "regadd4_pl" ".vhd" in
  let oc = open_out file in
  output_string oc vhdl;
  close_out oc;
  Printf.printf "wrote %d lines of structural PL VHDL to %s\n"
    (List.length (String.split_on_char '\n' vhdl))
    file
