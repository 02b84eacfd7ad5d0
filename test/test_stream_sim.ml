module Ss = Ee_sim.Stream_sim
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

let build id =
  let b = Ee_bench_circuits.Itc99.find id in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let pl_ee, _ = Ee_core.Synth.run pl in
  (nl, pl, pl_ee)

let golden nl vectors =
  let st = ref (Netlist.initial_state nl) in
  List.map
    (fun vec ->
      let outs, st' = Netlist.step nl !st vec in
      st := st';
      outs)
    vectors

let random_vectors nl n seed =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Netlist.inputs nl) in
  List.init n (fun _ -> Ee_util.Prng.bool_vector rng width)

let test_values_match_golden () =
  List.iter
    (fun id ->
      let nl, pl, pl_ee = build id in
      let vectors = random_vectors nl 80 42 in
      let expected = golden nl vectors in
      List.iter
        (fun netlist ->
          let r = Ss.run netlist ~vectors in
          Alcotest.(check int) (id ^ " all waves complete") 80 r.Ss.waves;
          List.iteri
            (fun w exp ->
              if r.Ss.outputs.(w) <> exp then
                Alcotest.failf "%s: wave %d outputs differ from golden model" id w)
            expected)
        [ pl; pl_ee ])
    [ "b01"; "b06"; "b09"; "b12" ]

let test_completion_monotone () =
  let _, pl, _ = build "b05" in
  let r = Ss.run_random pl ~waves:50 ~seed:3 in
  for w = 1 to r.Ss.waves - 1 do
    Alcotest.(check bool) "completions ordered" true
      (r.Ss.completion_times.(w) >= r.Ss.completion_times.(w - 1))
  done

let test_pipelining_beats_serialization () =
  (* Steady-state cycle time must be well below the serialized settle time
     for a deep combinational circuit — that's the whole point of
     self-timed pipelining. *)
  let _, pl, _ = build "b07" in
  let serial = Ee_sim.Sim.run_random pl ~vectors:50 ~seed:5 in
  let stream = Ss.run_random pl ~waves:50 ~seed:5 in
  Alcotest.(check bool) "cycle < settle" true
    (stream.Ss.cycle_time < serial.Ee_sim.Sim.avg_settle_time);
  (* And the makespan is far below 50 sequential settles. *)
  Alcotest.(check bool) "makespan < serialized" true
    (stream.Ss.makespan < serial.Ee_sim.Sim.avg_settle_time *. 50.)

let test_ee_improves_loop_bound_circuits () =
  (* Sequential circuits are throughput-bound by their register loops;
     early evaluation shortens the loop latency, so the gain must be
     positive. *)
  let gain =
    let _, pl, pl_ee = build "b12" in
    Ss.throughput_gain pl pl_ee ~waves:150 ~seed:4
  in
  Alcotest.(check bool) "positive throughput gain on b12" true (gain > 2.)

let test_ee_counts_early_fires () =
  let _, _, pl_ee = build "b09" in
  let r = Ss.run_random pl_ee ~waves:60 ~seed:8 in
  Alcotest.(check bool) "some early fires" true (r.Ss.early_fires > 0)

let test_safety_guard_trips_on_unsafe_netlist () =
  (* Constructing an artificially unsafe situation is impossible through
     Pl.of_netlist (live & safe by construction); instead check the
     exception type exists and a legal run never raises. *)
  let _, pl, _ = build "b03" in
  match Ss.run_random pl ~waves:40 ~seed:6 with
  | r -> Alcotest.(check int) "completes" 40 r.Ss.waves
  | exception Ss.Unsafe msg -> Alcotest.failf "spurious Unsafe: %s" msg

let test_register_initial_tokens_flow () =
  (* A toggler with no inputs streams its alternating state out. *)
  let b = Netlist.builder () in
  let d = Netlist.add_dff b ~init:false in
  let inv = Netlist.add_lut b (Lut4.lognot (Lut4.var 0)) [| d |] in
  Netlist.connect_dff b d ~d:inv;
  Netlist.set_output b "q" d;
  let pl = Pl.of_netlist (Netlist.finalize b) in
  let r = Ss.run pl ~vectors:(List.init 6 (fun _ -> [||])) in
  Alcotest.(check int) "six waves" 6 r.Ss.waves;
  let seq = Array.to_list (Array.map (fun o -> o.(0)) r.Ss.outputs) in
  Alcotest.(check (list bool)) "toggle stream" [ false; true; false; true; false; true ] seq

(* With one wave in flight the stream simulator is the wave simulator:
   its completion time and outputs are [Sim.apply]'s, bit for bit, with
   and without EE, with a free, a default and a dominant EE overhead,
   and under uniform and jittered delays. *)
let test_single_wave_matches_sim () =
  let module Sim = Ee_sim.Sim in
  let module D = Ee_sim.Delay_model in
  let cases = ref 0 in
  List.iter
    (fun id ->
      let nl, pl, pl_ee = build id in
      let vectors = random_vectors nl 10 21 in
      List.iter
        (fun (variant, netlist) ->
          List.iter
            (fun ee_overhead ->
              let config = { Ss.gate_delay = 1.0; ee_overhead } in
              List.iter
                (fun (model, delays) ->
                  let sim = Sim.create_with_delays ~config ~delays netlist in
                  List.iteri
                    (fun k vector ->
                      Sim.reset sim;
                      let w = Sim.apply sim vector in
                      let r = Ss.run ~config ~delays netlist ~vectors:[ vector ] in
                      incr cases;
                      if
                        not
                          (r.Ss.waves = 1
                          && Int64.bits_of_float r.Ss.completion_times.(0)
                             = Int64.bits_of_float w.Sim.output_time
                          && r.Ss.outputs.(0) = w.Sim.outputs)
                      then
                        Alcotest.failf "%s %s, ee_overhead %g, %s delays, vector %d: stream %h, sim %h"
                          id variant ee_overhead model k r.Ss.completion_times.(0) w.Sim.output_time)
                    vectors)
                [
                  ("uniform", D.uniform netlist ~gate_delay:1.0);
                  ("jittered", D.jittered netlist ~gate_delay:1.0 ~spread:0.5 ~seed:7);
                ])
            [ 0.25; 0.; 1.5 ])
        [ ("no EE", pl); ("EE", pl_ee) ])
    (List.init 13 (fun k -> Printf.sprintf "b%02d" (k + 1)));
  Alcotest.(check int) "cases" 1560 !cases

let suite =
  ( "stream-sim",
    [
      Alcotest.test_case "values match golden model" `Quick test_values_match_golden;
      Alcotest.test_case "completions monotone" `Quick test_completion_monotone;
      Alcotest.test_case "pipelining beats serialization" `Quick test_pipelining_beats_serialization;
      Alcotest.test_case "EE improves loop-bound circuits" `Quick test_ee_improves_loop_bound_circuits;
      Alcotest.test_case "early fires counted" `Quick test_ee_counts_early_fires;
      Alcotest.test_case "no spurious unsafety" `Quick test_safety_guard_trips_on_unsafe_netlist;
      Alcotest.test_case "register tokens flow" `Quick test_register_initial_tokens_flow;
      Alcotest.test_case "one wave in flight = Sim.apply" `Quick test_single_wave_matches_sim;
    ] )
