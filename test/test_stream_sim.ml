module Ss = Ee_sim.Stream_sim
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4
module Flat = Ee_phased.Flat
module Timing = Ee_phased.Timing

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

(* [Stream_sim.run] as it was before it ran on [Flat]'s slots: token
   records and per-gate arc lists, one data arc and one feedback arc per
   producer, deposited in list order. *)
type token = { time : float; value : bool }

type arc = {
  src : int;
  dst : int;
  is_data : bool;
  mutable slot : token option;
}

let reference_run ?(config = Ss.default_config) ?delays pl ~vectors =
  let n = Array.length (Pl.gates pl) in
  (match delays with
  | Some d when Array.length d <> n ->
      invalid_arg "Stream_sim.run: delays length mismatch"
  | _ -> ());
  let { Flat.code; arg; func; support; pstart; producer; pmask; _ } =
    Flat.of_pl ~caller:"Stream_sim.run" pl
  in
  let delay i =
    match delays with Some d -> d.(i) | None -> config.gate_delay
  in
  let in_arcs = Array.make n [] in
  let out_data = Array.make n [] in
  let out_feedback = Array.make n [] in
  let add_arc src dst is_data initial =
    let a = { src; dst; is_data; slot = initial } in
    in_arcs.(dst) <- a :: in_arcs.(dst);
    if is_data then out_data.(src) <- a :: out_data.(src)
    else out_feedback.(src) <- a :: out_feedback.(src);
    a
  in
  (* One data arc per producer, in [Flat]'s producer order, and the
     complementary feedback arc: marked iff the data arc is not.
     Self-loops (a register reading itself) need none — the marked data
     arc is already the one-token circuit. *)
  let data_in =
    Array.init n (fun i ->
        Array.init (pstart.(i + 1) - pstart.(i)) (fun k ->
            let src = producer.(pstart.(i) + k) in
            let initial =
              match code.(src) with
              | Flat.Register | Flat.Const -> Some { time = 0.; value = arg.(src) = 1 }
              | _ -> None
            in
            let a = add_arc src i true initial in
            if src <> i then
              ignore (add_arc i src false (if initial = None then Some { time = 0.; value = false } else None));
            a))
  in
  (* Environment state: every source gate injects the same wave sequence,
     each tracking its own wave cursor (sources are acknowledged
     independently, so their cursors can be out of step transiently). *)
  let vector_arr = Array.of_list vectors in
  let source_wave = Array.make n 0 in
  let sink_ids = Pl.sink_ids pl in
  let total_waves = List.length vectors in
  let sink_records = Array.map (fun _ -> Queue.create ()) sink_ids in
  let sink_index = Array.make n (-1) in
  Array.iteri (fun k id -> sink_index.(id) <- k) sink_ids;
  let early_fires = ref 0 in
  (* Worklist processing. *)
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enabled i = List.for_all (fun a -> a.slot <> None) in_arcs.(i) in
  let enqueue i =
    if (not queued.(i)) && enabled i then begin
      queued.(i) <- true;
      Queue.push i queue
    end
  in
  let deposit a (tok : token) =
    (match a.slot with
    | Some _ ->
        raise
          (Ss.Unsafe
             (Printf.sprintf "arc %d -> %d received a second token" a.src a.dst))
    | None -> a.slot <- Some tok);
    enqueue a.dst
  in
  let fire i =
    queued.(i) <- false;
    if enabled i then begin
      (* Gather the input values by fanin position, the trigger token and
         the arrival of the master's subset inputs, then consume every input
         token. *)
      let m = ref 0 and trigger = ref None and t_subset = ref 0. in
      let ins = data_in.(i) in
      for k = 0 to Array.length ins - 1 do
        let tok = Option.get ins.(k).slot and mask = pmask.(pstart.(i) + k) in
        if tok.value then m := !m lor (mask land (Flat.trigger_bit - 1));
        if mask land Flat.trigger_bit <> 0 then trigger := Some tok;
        if mask land support.(i) <> 0 then t_subset := max !t_subset tok.time
      done;
      (* Consumers' acknowledges bound any firing, early ones included: the
         output latch must be free before a new token can be emitted. *)
      let t_all = ref 0. and t_acks = ref 0. in
      List.iter
        (fun a ->
          let t = (Option.get a.slot).time in
          t_all := max !t_all t;
          if not a.is_data then t_acks := max !t_acks t;
          a.slot <- None)
        in_arcs.(i);
      let t_all = !t_all and t_acks = !t_acks in
      let emit_output t_out value =
        List.iter (fun a -> deposit a { time = t_out; value }) out_data.(i)
      in
      let emit_feedback t =
        List.iter (fun a -> deposit a { time = t; value = false }) out_feedback.(i)
      in
      (match code.(i) with
      | Flat.Source ->
          let w = source_wave.(i) in
          if w < Array.length vector_arr then begin
            source_wave.(i) <- w + 1;
            let value = vector_arr.(w).(arg.(i)) in
            emit_output t_all value;
            emit_feedback t_all
          end
      | Flat.Const ->
          emit_output t_all (arg.(i) = 1);
          emit_feedback t_all
      | Flat.Register ->
          emit_output (t_all +. delay i) (!m = 1);
          emit_feedback (t_all +. delay i)
      | Flat.Sink ->
          (* A sink's only input token is its fanin's. *)
          Queue.push { time = t_all; value = !m = 1 } sink_records.(sink_index.(i));
          emit_feedback t_all
      | Flat.Lut | Flat.Trigger ->
          emit_output (t_all +. delay i) (Lut4.eval_bits func.(i) !m);
          emit_feedback (t_all +. delay i)
      | Flat.Master ->
          let value = Lut4.eval_bits func.(i) !m in
          let t_complete = Timing.guarded config ~delay:(delay i) t_all in
          let t_out =
            match !trigger with
            | Some trig when trig.value ->
                (* Early path: the subset tokens, the efire token and the
                   consumers' acknowledges gate the early C-element. *)
                let t_early = Timing.early config (max (max !t_subset trig.time) t_acks) in
                if t_early < t_complete then incr early_fires;
                min t_early t_complete
            | _ -> t_complete
          in
          emit_output t_out value;
          emit_feedback t_complete);
      (* A gate may be immediately re-enabled (e.g. constant sources). *)
      enqueue i
    end
  in
  (* Prime: every gate that is initially enabled. *)
  for i = 0 to n - 1 do
    enqueue i
  done;
  let steps = ref 0 in
  let max_steps = (total_waves + 4) * (n + 4) * 8 in
  (* Stop as soon as every sink has delivered the requested waves: circuits
     whose state loops do not depend on the environment (free-running
     counters, constant generators) never quiesce on their own. *)
  let all_delivered () =
    Array.for_all (fun q -> Queue.length q >= total_waves) sink_records
  in
  while (not (Queue.is_empty queue)) && not (all_delivered ()) do
    incr steps;
    if !steps > max_steps then
      raise (Ss.Unsafe "simulation did not quiesce (possible livelock)");
    fire (Queue.pop queue)
  done;
  (* Collect per-wave outputs. *)
  let collected = Array.map Queue.length sink_records in
  let waves = Array.fold_left min total_waves collected in
  let outputs = Array.init waves (fun _ -> Array.make (Array.length sink_ids) false) in
  let completion_times = Array.make waves 0. in
  Array.iteri
    (fun k q ->
      for w = 0 to waves - 1 do
        let tok = Queue.pop q in
        outputs.(w).(k) <- tok.value;
        completion_times.(w) <- max completion_times.(w) tok.time
      done)
    sink_records;
  let makespan = if waves = 0 then 0. else completion_times.(waves - 1) in
  let cycle_time =
    if waves < 4 then makespan /. float_of_int (max waves 1)
    else
      let lo = waves / 2 in
      (completion_times.(waves - 1) -. completion_times.(lo))
      /. float_of_int (waves - 1 - lo)
  in
  { Ss.waves; outputs; completion_times; cycle_time; makespan; early_fires = !early_fires }

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

(* The slot kernel is the reference simulator bit for bit, [early_fires]
   included (free-running parts fire until every sink is done, so it
   depends on the worklist order): b01-b13 with and without EE, with a
   free, a default and a dominant EE overhead, under uniform and jittered
   delays, 240 waves each. *)
let test_matches_reference () =
  let module D = Ee_sim.Delay_model in
  let bits = Array.map Int64.bits_of_float in
  let runs = ref 0 in
  List.iter
    (fun id ->
      let nl, pl, pl_ee = build id in
      let vectors = random_vectors nl 240 2002 in
      List.iter
        (fun (variant, netlist) ->
          List.iter
            (fun ee_overhead ->
              let config = { Ss.gate_delay = 1.0; ee_overhead } in
              List.iter
                (fun (model, delays) ->
                  let r = Ss.run ~config ~delays netlist ~vectors in
                  let e = reference_run ~config ~delays netlist ~vectors in
                  incr runs;
                  if
                    not
                      (r.Ss.waves = e.Ss.waves
                      && r.Ss.outputs = e.Ss.outputs
                      && bits r.Ss.completion_times = bits e.Ss.completion_times
                      && Int64.bits_of_float r.Ss.cycle_time = Int64.bits_of_float e.Ss.cycle_time
                      && Int64.bits_of_float r.Ss.makespan = Int64.bits_of_float e.Ss.makespan
                      && r.Ss.early_fires = e.Ss.early_fires)
                  then
                    Alcotest.failf "%s %s, ee_overhead %g, %s delays: differs from the reference"
                      id variant ee_overhead model)
                [
                  ("uniform", D.uniform netlist ~gate_delay:1.0);
                  ("jittered", D.jittered netlist ~gate_delay:1.0 ~spread:0.5 ~seed:7);
                ])
            [ 0.25; 0.; 1.5 ])
        [ ("no EE", pl); ("EE", pl_ee) ])
    (List.init 13 (fun k -> Printf.sprintf "b%02d" (k + 1)));
  Alcotest.(check int) "runs" 156 !runs

(* The kernel allocates no token records, options or lists: b12 with EE
   over 240 waves takes about 0.21 M minor words, against 3.96 M for the
   reference simulator. *)
let test_allocation () =
  let nl, _, pl_ee = build "b12" in
  let vectors = random_vectors nl 240 2002 in
  let before = Gc.minor_words () in
  ignore (Ss.run pl_ee ~vectors);
  let words = Gc.minor_words () -. before in
  if words >= 1e6 then Alcotest.failf "b12 EE, 240 waves: %.0f minor words, bound 1e6" words

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
      Alcotest.test_case "slot kernel = reference simulator" `Quick test_matches_reference;
      Alcotest.test_case "allocation bound" `Quick test_allocation;
    ] )
