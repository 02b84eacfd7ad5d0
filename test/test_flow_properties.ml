(* Whole-flow property tests over randomly generated RTL designs: every
   stage of the pipeline — elaboration, LUT4 mapping, PL mapping, EE
   synthesis, all three simulators, BLIF round-trip — must agree with the
   RTL interpreter. *)

open Ee_rtl
module Netlist = Ee_netlist.Netlist
module Pl = Ee_phased.Pl

let qtest name ?(count = 40) prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 0 1_000_000) prop)

let rtl_equiv_netlist d nl cycles seed =
  let pm = Portmap.make d nl in
  let rng = Ee_util.Prng.create seed in
  let env = ref (Rtl.initial_env d) in
  let st = ref (Netlist.initial_state nl) in
  let ok = ref true in
  for _ = 1 to cycles do
    if !ok then begin
      let ins = Portmap.random_inputs pm rng in
      let outs_rtl, env' = Rtl.step d !env ins in
      let outs_nl, st' = Portmap.step pm !st ins in
      env := env';
      st := st';
      if List.exists (fun (n, v) -> List.assoc n outs_nl <> v) outs_rtl then ok := false
    end
  done;
  !ok

let prop_techmap_equiv =
  qtest "random RTL: techmap preserves semantics" (fun seed ->
      let d = Rtl_gen.generate seed in
      rtl_equiv_netlist d (Techmap.run_rtl d) 40 (seed + 1))

let prop_pl_and_ee_equiv =
  qtest "random RTL: PL mapping and EE preserve semantics" (fun seed ->
      let d = Rtl_gen.generate seed in
      let nl = Techmap.run_rtl d in
      let pl = Pl.of_netlist nl in
      let pl_ee, _ = Ee_core.Synth.run pl in
      Ee_sim.Sim.equiv_random pl nl ~vectors:30 ~seed:(seed + 2)
      && Ee_sim.Sim.equiv_random pl_ee nl ~vectors:30 ~seed:(seed + 2))

let prop_three_simulators_agree =
  qtest "random RTL: wave, streaming and rail simulators agree" ~count:25 (fun seed ->
      let d = Rtl_gen.generate seed in
      let nl = Techmap.run_rtl d in
      let pl = Pl.of_netlist nl in
      let pl_ee, _ = Ee_core.Synth.run pl in
      let width = Array.length (Pl.source_ids pl_ee) in
      let rng = Ee_util.Prng.create (seed + 3) in
      let vectors = List.init 25 (fun _ -> Ee_util.Prng.bool_vector rng width) in
      let wave_sim = Ee_sim.Sim.create pl_ee in
      let rail = Ee_phased.Rail_sim.create pl_ee in
      let wave_outs = List.map (fun v -> (Ee_sim.Sim.apply wave_sim v).Ee_sim.Sim.outputs) vectors in
      let rail_outs = List.map (fun v -> fst (Ee_phased.Rail_sim.apply rail v)) vectors in
      let stream = Ee_sim.Stream_sim.run pl_ee ~vectors in
      let stream_outs = Array.to_list stream.Ee_sim.Stream_sim.outputs in
      wave_outs = rail_outs && wave_outs = stream_outs)

let prop_marked_graph_live_safe =
  qtest "random RTL: marked graph live and safe (with EE)" ~count:30 (fun seed ->
      let d = Rtl_gen.generate seed in
      let nl = Techmap.run_rtl d in
      let pl_ee, _ = Ee_core.Synth.run (Pl.of_netlist nl) in
      let mg = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" pl_ee) in
      Ee_markedgraph.Marked_graph.is_live mg && Ee_markedgraph.Marked_graph.is_safe mg)

let prop_blif_roundtrip =
  qtest "random RTL: BLIF round-trip preserves semantics" ~count:25 (fun seed ->
      let d = Rtl_gen.generate seed in
      let nl = Techmap.run_rtl d in
      let nl' = Ee_frontend.Blif_in.of_string (Ee_export.Blif.to_blif nl) in
      (* Drive both netlists with the same per-name values. *)
      let rng = Ee_util.Prng.create (seed + 4) in
      let sta = ref (Netlist.initial_state nl) and stb = ref (Netlist.initial_state nl') in
      let ok = ref true in
      for _ = 1 to 30 do
        if !ok then begin
          let values =
            Array.to_list
              (Array.map (fun (n, _) -> (n, Ee_util.Prng.bool rng)) (Netlist.inputs nl))
          in
          let vec_for m =
            Array.map (fun (n, _) -> List.assoc n values) (Netlist.inputs m)
          in
          let outs_a, sta' = Netlist.step nl !sta (vec_for nl) in
          let outs_b, stb' = Netlist.step nl' !stb (vec_for nl') in
          sta := sta';
          stb := stb';
          let tag m outs =
            List.sort compare
              (Array.to_list (Array.mapi (fun k (n, _) -> (n, outs.(k))) (Netlist.outputs m)))
          in
          if tag nl outs_a <> tag nl' outs_b then ok := false
        end
      done;
      !ok)

let prop_generator_is_deterministic =
  qtest "generator determinism" ~count:50 (fun seed ->
      Rtl_gen.generate seed = Rtl_gen.generate seed)

let suite =
  ( "flow-properties",
    [
      prop_generator_is_deterministic;
      prop_techmap_equiv;
      prop_pl_and_ee_equiv;
      prop_three_simulators_agree;
      prop_marked_graph_live_safe;
      prop_blif_roundtrip;
    ] )
