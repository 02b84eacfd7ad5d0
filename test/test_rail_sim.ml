module Rail_sim = Ee_phased.Rail_sim
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

let build id =
  let b = Ee_bench_circuits.Itc99.find id in
  let nl = Ee_rtl.Techmap.run_rtl (b.Ee_bench_circuits.Itc99.build ()) in
  let pl = Pl.of_netlist nl in
  let pl_ee, _ = Ee_core.Synth.run pl in
  (nl, pl, pl_ee)

(* Reference kernel transcribed from the record-walking simulator that the
   compiled, event-driven one replaced: it rescans every gate in every
   round.  It raises [Rail_sim]'s exceptions so that payloads compare
   directly. *)
module Reference = struct
  module Ledr = Ee_phased.Ledr
  module Marked_graph = Ee_markedgraph.Marked_graph

  type t = {
    pl : Pl.t;
    hooks : Rail_sim.hooks;
    delays : int array; (* extra firing rounds per gate once enabled *)
    rails : Ledr.rails array; (* output wire pair per gate *)
    gate_phase : Ledr.phase array;
    reg_state : bool array;
    source_pos : int array; (* vector index of each source, by gate id *)
    mutable wave_phase : Ledr.phase; (* phase carried by the NEXT wave's tokens *)
    mutable wave_no : int; (* waves applied so far; the hooks' wave index *)
  }

  let violation fmt = Printf.ksprintf (fun s -> raise (Rail_sim.Protocol_violation s)) fmt

  let create ?(hooks = Rail_sim.no_hooks) ?delays pl =
    let n = Array.length (Pl.gates pl) in
    let delays =
      match delays with
      | None -> Array.make n 0
      | Some d ->
          if Array.length d <> n then invalid_arg "Rail_sim.create: delay count";
          Array.iteri
            (fun i k -> if k < 0 then invalid_arg (Printf.sprintf "Rail_sim.create: negative delay for gate %d" i))
            d;
          Array.copy d
    in
    let reg_state = Array.make n false in
    Array.iteri
      (fun i g -> match g.Pl.kind with Pl.Register init -> reg_state.(i) <- init | _ -> ())
      (Pl.gates pl);
    let source_pos = Array.make n (-1) in
    Array.iteri (fun k id -> source_pos.(id) <- k) (Pl.source_ids pl);
    {
      pl;
      hooks;
      delays;
      rails = Array.make n (Ledr.encode ~value:false ~phase:Ledr.Even);
      gate_phase = Array.make n Ledr.Even;
      reg_state;
      source_pos;
      wave_phase = Ledr.Odd;
      wave_no = 0;
    }

  let reset t =
    Array.iteri
      (fun i g ->
        (match g.Pl.kind with
        | Pl.Register init -> t.reg_state.(i) <- init
        | _ -> t.reg_state.(i) <- false);
        t.rails.(i) <- Ledr.encode ~value:false ~phase:Ledr.Even;
        t.gate_phase.(i) <- Ledr.Even)
      (Pl.gates t.pl);
    t.wave_phase <- Ledr.Odd;
    t.wave_no <- 0

  (* Latch a new value into a gate's output pair.  The rails actually driven
     pass through the [on_latch] hook: an unfaulted latch is self-checked for
     the LEDR single-rail-transition property, while a faulted one follows
     the physics of the wire pair — a double-rail change is an observable
     protocol breach (raised), a suppressed transition silently starves the
     consumers (diagnosed later as a stall), and the "other" single-rail
     transition is a perfectly legal token carrying the wrong value. *)
  let latch ?(dup = false) t i value =
    let current = t.rails.(i) in
    let fresh = Ledr.next current value in
    let driven = t.hooks.Rail_sim.on_latch ~wave:t.wave_no ~gate:i fresh in
    if driven = fresh then begin
      if dup then violation "gate %d: fired twice in one wave" i;
      if Ledr.hamming current fresh <> 1 then
        violation "gate %d: transition changed %d rails" i (Ledr.hamming current fresh);
      if Ledr.phase fresh <> t.wave_phase then violation "gate %d: latched wrong phase" i
    end
    else if Ledr.hamming current driven = 2 then
      violation "gate %d: fault changed both rails at once" i;
    t.rails.(i) <- driven

  (* Map the mid-wave rail/phase state onto the PL marked graph: a data arc
     s->d carries a token when s has produced a fresh token d has not yet
     consumed; the complementary feedback arc d->s carries one when d has
     fired (ack returned) or s has not yet fired.  A gate that fired but
     whose output pair is phase-stale (a stuck rail ate the transition)
     leaves BOTH arcs of its circuit empty — the token-free cycle that
     explains the deadlock. *)
  let stalled_marking pl ~rails ~gate_phase ~wave mg =
    let gates = Pl.gates pl in
    let fired i =
      match gates.(i).Pl.kind with
      | Pl.Gate _ | Pl.Trigger _ | Pl.Sink _ -> gate_phase.(i) = wave
      | Pl.Source _ | Pl.Const_source _ | Pl.Register _ -> true
    in
    let fresh i = Ledr.phase rails.(i) = wave in
    let dep_of d s =
      Array.exists (( = ) s) gates.(d).Pl.fanin
      || (match Pl.ee pl d with Some e -> e.Pl.trigger = s | None -> false)
    in
    let counts =
      Array.map
        (fun (s, d, tok0) ->
          if s = d then tok0 (* register self-loop keeps its state token *)
          else if dep_of d s then if fired s && fresh s && not (fired d) then 1 else 0
          else if (* feedback arc d->s, with s the consumer of d's data *)
            fired s || not (fired d) then 1
          else 0)
        (Marked_graph.arcs mg)
    in
    Marked_graph.marking_of_array mg counts

  (* The cycle [Rail_sim] must blame for a stall in this state. *)
  let marked_graph pl = Ee_phased.Flat.marked_graph (Ee_phased.Flat.of_pl ~caller:"test" pl)

  let blamed_cycle pl mg ~rails ~gate_phase ~wave =
    match Marked_graph.token_free_cycle mg (stalled_marking pl ~rails ~gate_phase ~wave mg) with
    | Some c -> c
    | None -> []

  let diagnose_stall t ~unfired =
    let gates = Pl.gates t.pl in
    let wave = t.wave_phase in
    let stale i = Ledr.phase t.rails.(i) <> wave in
    let deps i =
      (match Pl.ee t.pl i with Some e -> [ e.Pl.trigger ] | None -> [])
      @ Array.to_list gates.(i).Pl.fanin
    in
    let waiting_on = List.map (fun i -> (i, List.filter stale (deps i))) unfired in
    let unfired_set = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace unfired_set i ()) unfired;
    (* A root stalls without any stale input of its own: the gate a fault
       stopped from firing, rather than a downstream victim. *)
    let roots =
      List.filter_map
        (fun (i, stale_deps) ->
          if List.for_all (fun d -> not (Hashtbl.mem unfired_set d)) stale_deps then Some i
          else None)
        waiting_on
    in
    let stale_sources =
      Array.to_list
        (Array.mapi
           (fun i g ->
             match g.Pl.kind with
             | Pl.Gate _ | Pl.Trigger _ when t.gate_phase.(i) = wave && stale i -> Some i
             | Pl.Source _ | Pl.Const_source _ | Pl.Register _ when stale i -> Some i
             | _ -> None)
           gates)
      |> List.filter_map Fun.id
    in
    let blamed_cycle =
      blamed_cycle t.pl (marked_graph t.pl) ~rails:t.rails ~gate_phase:t.gate_phase ~wave:t.wave_phase
    in
    { Rail_sim.stall_wave = t.wave_no; unfired; waiting_on; roots; stale_sources; blamed_cycle }

  let apply t vector =
    let gates = Pl.gates t.pl in
    let n = Array.length gates in
    let wave = t.wave_phase in
    let wave_no = t.wave_no in
    if Array.length vector <> Array.length (Pl.source_ids t.pl) then
      invalid_arg "Rail_sim.apply: wrong vector length";
    (* Environment and token-holding gates emit the new wave's tokens. *)
    Array.iteri
      (fun i g ->
        match g.Pl.kind with
        | Pl.Source _ ->
            latch t i vector.(t.source_pos.(i));
            t.gate_phase.(i) <- wave
        | Pl.Const_source v ->
            latch t i v;
            t.gate_phase.(i) <- wave
        | Pl.Register _ ->
            latch t i t.reg_state.(i);
            t.gate_phase.(i) <- wave
        | Pl.Gate _ | Pl.Trigger _ | Pl.Sink _ -> ())
      gates;
    (* Fire combinational gates with the Muller-C rule until quiescent.  The
       scan is a fixpoint over unit-delay rounds: each round decides which
       gates fire from a snapshot of the rails, then fires them together.  A
       gate with a per-gate round delay becomes eligible when its inputs are
       fresh and fires that many rounds later — so an adversarial schedule
       can stretch a late-input path arbitrarily relative to a trigger.  A
       master whose trigger and subset inputs are fresh fires in an earlier
       round than its late-input chain would allow — the rail-level picture
       of early evaluation. *)
    let early = ref 0 in
    let early_fired_value = Array.make n None in
    let ready_since = Array.make n (-1) in
    let input_phase_ok i =
      Array.for_all (fun f -> Ledr.phase t.rails.(f) = wave) gates.(i).Pl.fanin
    in
    let eval_gate func fanin =
      let m = ref 0 in
      Array.iteri (fun k f -> if Ledr.value t.rails.(f) then m := !m lor (1 lsl k)) fanin;
      Lut4.eval_bits func !m
    in
    let round = ref 0 in
    let progress = ref true in
    let max_rounds = Array.fold_left ( + ) (n + 2) t.delays in
    while !progress && !round <= max_rounds do
      progress := false;
      let to_fire = ref [] in
      let waiting = ref false in
      for i = 0 to n - 1 do
        if t.gate_phase.(i) <> wave && not (t.hooks.Rail_sim.drop_fire ~wave:wave_no ~gate:i) then begin
          let ready, value, was_early =
            match gates.(i).Pl.kind with
            | Pl.Trigger { func; _ } ->
                if input_phase_ok i then (true, eval_gate func gates.(i).Pl.fanin, false)
                else (false, false, false)
            | Pl.Gate func ->
                let normal_ready = input_phase_ok i in
                let early_ready =
                  match Pl.ee t.pl i with
                  | Some e ->
                      let trig = e.Pl.trigger in
                      Ledr.phase t.rails.(trig) = wave
                      && t.hooks.Rail_sim.trigger_seen ~wave:wave_no ~master:i
                           (Ledr.value t.rails.(trig))
                      && Ee_util.Bits.fold_bits e.Pl.support
                           (fun acc p ->
                             acc && Ledr.phase t.rails.(gates.(i).Pl.fanin.(p)) = wave)
                           true
                  | None -> false
                in
                if normal_ready || early_ready then
                  (* The LUT sees whatever the rails hold right now; for an
                     early firing the late inputs still carry the previous
                     wave's values, and the trigger guarantees insensitivity. *)
                  (true, eval_gate func gates.(i).Pl.fanin, early_ready && not normal_ready)
                else (false, false, false)
            | Pl.Source _ | Pl.Const_source _ | Pl.Register _ | Pl.Sink _ ->
                (false, false, false)
          in
          if ready then begin
            if ready_since.(i) < 0 then ready_since.(i) <- !round;
            if !round - ready_since.(i) >= t.delays.(i) then
              to_fire := (i, value, was_early) :: !to_fire
            else waiting := true
          end
        end
      done;
      List.iter
        (fun (i, value, was_early) ->
          latch t i value;
          t.gate_phase.(i) <- wave;
          progress := true;
          if was_early then begin
            incr early;
            early_fired_value.(i) <- Some value
          end;
          if t.hooks.Rail_sim.extra_fire ~wave:wave_no ~gate:i then
            (* Token duplication: a second transition in the same wave. *)
            latch ~dup:true t i (eval_gate (match gates.(i).Pl.kind with
                                            | Pl.Gate f | Pl.Trigger { func = f; _ } -> f
                                            | _ -> assert false)
                                   gates.(i).Pl.fanin))
        !to_fire;
      (* Nothing fired, but some enabled gate still counts down its delay:
         advance the round clock. *)
      if (not !progress) && !waiting then progress := true;
      incr round
    done;
    (* Every combinational gate must have fired exactly once; a quiescent
       state with unfired gates is a deadlock, diagnosed in marked-graph
       terms. *)
    let unfired =
      List.rev
        (snd
           (Array.fold_left
              (fun (i, acc) g ->
                ( i + 1,
                  match g.Pl.kind with
                  | (Pl.Gate _ | Pl.Trigger _) when t.gate_phase.(i) <> wave -> i :: acc
                  | _ -> acc ))
              (0, []) gates))
    in
    if unfired <> [] then raise (Rail_sim.Stalled (diagnose_stall t ~unfired));
    (* Late inputs have all arrived now: re-evaluate the early-fired masters
       and confirm the latched value was correct (the paper's don't-care
       argument made executable). *)
    Array.iteri
      (fun i latched ->
        match latched with
        | Some v ->
            let g = gates.(i) in
            let func = match g.Pl.kind with Pl.Gate f -> f | _ -> assert false in
            let now = eval_gate func g.Pl.fanin in
            if now <> v then violation "gate %d: early value contradicted by late inputs" i
        | None -> ())
      early_fired_value;
    (* Registers capture their D inputs; sinks observe. *)
    Array.iteri
      (fun i g ->
        match g.Pl.kind with
        | Pl.Register _ ->
            let d = g.Pl.fanin.(0) in
            if Ledr.phase t.rails.(d) <> wave then violation "register %d: stale D input" i;
            t.reg_state.(i) <- Ledr.value t.rails.(d)
        | Pl.Sink _ ->
            t.gate_phase.(i) <- wave
        | _ -> ())
      gates;
    let outputs =
      Array.map (fun s -> Ledr.value t.rails.((Pl.gates t.pl).(s).Pl.fanin.(0))) (Pl.sink_ids t.pl)
    in
    t.wave_phase <- Ledr.flip wave;
    t.wave_no <- t.wave_no + 1;
    (outputs, !early)
end

let test_matches_golden () =
  List.iter
    (fun id ->
      let nl, pl, pl_ee = build id in
      Alcotest.(check bool) (id ^ " plain") true (Rail_sim.run_check pl nl ~vectors:80 ~seed:3);
      Alcotest.(check bool) (id ^ " ee") true (Rail_sim.run_check pl_ee nl ~vectors:80 ~seed:3))
    [ "b02"; "b05"; "b10"; "b13" ]

let test_early_fires_observed () =
  let _, _, pl_ee = build "b09" in
  let t = Rail_sim.create pl_ee in
  let rng = Ee_util.Prng.create 7 in
  let width = Array.length (Pl.source_ids pl_ee) in
  let total = ref 0 in
  for _ = 1 to 40 do
    let _, e = Rail_sim.apply t (Ee_util.Prng.bool_vector rng width) in
    total := !total + e
  done;
  Alcotest.(check bool) "masters fire off stale rails" true (!total > 0)

let test_no_early_without_ee () =
  let _, pl, _ = build "b09" in
  let t = Rail_sim.create pl in
  let rng = Ee_util.Prng.create 7 in
  let width = Array.length (Pl.source_ids pl) in
  for _ = 1 to 20 do
    let _, e = Rail_sim.apply t (Ee_util.Prng.bool_vector rng width) in
    Alcotest.(check int) "no triggers, no early fires" 0 e
  done

let test_reset () =
  let nl, _, pl_ee = build "b12" in
  let t = Rail_sim.create pl_ee in
  let rng = Ee_util.Prng.create 4 in
  let width = Array.length (Pl.source_ids pl_ee) in
  let first_wave_vec = Ee_util.Prng.bool_vector (Ee_util.Prng.create 99) width in
  let first, _ = Rail_sim.apply t first_wave_vec in
  for _ = 1 to 10 do
    ignore (Rail_sim.apply t (Ee_util.Prng.bool_vector rng width))
  done;
  Rail_sim.reset t;
  let again, _ = Rail_sim.apply t first_wave_vec in
  Alcotest.(check bool) "reset reproduces wave 1" true (first = again);
  ignore nl

let test_phase_alternation_across_waves () =
  (* Feeding constant inputs still works: every wave flips the token phase
     (same value, different rails), which the protocol checks internally. *)
  let nl, pl, _ = build "b06" in
  let t = Rail_sim.create pl in
  let st = ref (Netlist.initial_state nl) in
  for _ = 1 to 12 do
    let vec = [| true; true |] in
    let outs, _ = Rail_sim.apply t vec in
    let expected, st' = Netlist.step nl !st vec in
    st := st';
    Alcotest.(check bool) "constant-input wave" true (outs = expected)
  done

let test_single_gate_protocol () =
  (* One AND gate: watch the rails flip one wire at a time. *)
  let b = Netlist.builder () in
  let x = Netlist.add_input b "x" in
  let y = Netlist.add_input b "y" in
  let g = Netlist.add_lut b (Lut4.logand (Lut4.var 0) (Lut4.var 1)) [| x; y |] in
  Netlist.set_output b "z" g;
  let pl = Pl.of_netlist (Netlist.finalize b) in
  let t = Rail_sim.create pl in
  List.iter
    (fun (vx, vy) ->
      let outs, _ = Rail_sim.apply t [| vx; vy |] in
      Alcotest.(check bool) "and" (vx && vy) outs.(0))
    [ (true, true); (true, true); (false, true); (true, false); (false, false) ]

(* Every gate's output pair starts at {v=0,t=0}, so driving {v=1,t=1} on
   the first wave changes both wires of the pair at once — the one LEDR
   transition that can never be legal, and the simulator must say so. *)
let test_double_rail_fault_detected () =
  let _, pl, _ = build "b06" in
  let gates = Pl.gates pl in
  let target =
    let rec find i =
      match gates.(i).Pl.kind with Pl.Gate _ -> i | _ -> find (i + 1)
    in
    find 0
  in
  let hooks =
    {
      Rail_sim.no_hooks with
      Rail_sim.on_latch =
        (fun ~wave ~gate r ->
          if gate = target && wave = 0 then { Ee_phased.Ledr.v = true; t = true } else r);
    }
  in
  let t = Rail_sim.create ~hooks pl in
  let rng = Ee_util.Prng.create 6 in
  let width = Array.length (Pl.source_ids pl) in
  match Rail_sim.apply t (Ee_util.Prng.bool_vector rng width) with
  | _ -> Alcotest.fail "double-rail fault went unnoticed"
  | exception Rail_sim.Protocol_violation msg ->
      let contains hay needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "violation names both rails" true (contains msg "both rails")

let test_token_loss_stall_forensics () =
  let _, pl, _ = build "b06" in
  let gates = Pl.gates pl in
  let target =
    let has_comb_consumer i =
      Array.exists
        (fun g ->
          match g.Pl.kind with
          | Pl.Gate _ | Pl.Trigger _ | Pl.Register _ -> Array.mem i g.Pl.fanin
          | _ -> false)
        gates
    in
    let rec find i =
      match gates.(i).Pl.kind with
      | Pl.Gate _ when has_comb_consumer i -> i
      | _ -> find (i + 1)
    in
    find 0
  in
  let hooks =
    { Rail_sim.no_hooks with Rail_sim.drop_fire = (fun ~wave ~gate -> gate = target && wave = 1) }
  in
  let t = Rail_sim.create ~hooks pl in
  let rng = Ee_util.Prng.create 6 in
  let width = Array.length (Pl.source_ids pl) in
  let rec run wave =
    if wave >= 4 then Alcotest.fail "dropped firing did not stall the wave"
    else
      match Rail_sim.apply t (Ee_util.Prng.bool_vector rng width) with
      | _ -> run (wave + 1)
      | exception Rail_sim.Stalled s ->
          Alcotest.(check int) "stalls in the faulted wave" 1 s.Rail_sim.stall_wave;
          Alcotest.(check bool) "dropped gate among the unfired" true
            (List.mem target s.Rail_sim.unfired);
          Alcotest.(check bool) "dropped gate is a root cause" true
            (List.mem target s.Rail_sim.roots);
          Alcotest.(check bool) "report renders" true
            (String.length (Rail_sim.stall_to_string s) > 0)
  in
  run 0

(* Per-gate round delays reorder firings but can never change the values:
   delay-insensitivity, executed. *)
let test_delay_schedule_invariance () =
  let nl, _, pl_ee = build "b09" in
  let n = Array.length (Pl.gates pl_ee) in
  let width = Array.length (Pl.source_ids pl_ee) in
  List.iter
    (fun mk ->
      let t = Rail_sim.create ~delays:(Array.init n mk) pl_ee in
      let st = ref (Netlist.initial_state nl) in
      let rng = Ee_util.Prng.create 21 in
      for _ = 1 to 25 do
        let vec = Ee_util.Prng.bool_vector rng width in
        let outs, _ = Rail_sim.apply t vec in
        let expected, st' = Netlist.step nl !st vec in
        st := st';
        Alcotest.(check bool) "outputs independent of the schedule" true (outs = expected)
      done)
    [ (fun _ -> 0); (fun _ -> 3); (fun i -> i mod 5); (fun i -> (i * 7) mod 11) ]

let test_delay_validation () =
  let _, pl, _ = build "b02" in
  (match Rail_sim.create ~delays:[| 1 |] pl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected length validation");
  let n = Array.length (Pl.gates pl) in
  match Rail_sim.create ~delays:(Array.make n (-1)) pl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected negative-delay validation"

(* The compiled kernel against the reference: every wave's outputs, early
   count and raised exception (the whole stall record included), up to the
   first exception, then again after [reset]. *)
type step = Wave of bool array * int | Violation of string | Stall of Rail_sim.stall

let trace apply reset sim vectors =
  let rec go acc = function
    | [] -> List.rev acc
    | v :: vs -> (
        match apply sim v with
        | outs, early -> go (Wave (outs, early) :: acc) vs
        | exception Rail_sim.Protocol_violation m -> List.rev (Violation m :: acc)
        | exception Rail_sim.Stalled s -> List.rev (Stall s :: acc))
  in
  let first = go [] vectors in
  reset sim;
  first @ go [] vectors

let check_against_reference label ?hooks ?delays pl vectors =
  let fast = trace Rail_sim.apply Rail_sim.reset (Rail_sim.create ?hooks ?delays pl) vectors in
  let slow = trace Reference.apply Reference.reset (Reference.create ?hooks ?delays pl) vectors in
  let show = function
    | Wave (outs, early) ->
        Printf.sprintf "outputs %s, %d early"
          (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list outs)))
          early
    | Violation m -> "violation: " ^ m
    | Stall s -> Rail_sim.stall_to_string s
  in
  if fast <> slow then
    Alcotest.failf "%s: compiled kernel differs from the reference:\n%s\nreference:\n%s" label
      (String.concat "\n" (List.map show fast))
      (String.concat "\n" (List.map show slow))

let random_vectors pl ~waves ~seed =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Pl.source_ids pl) in
  List.init waves (fun _ -> Ee_util.Prng.bool_vector rng width)

let artifact id = Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find id)

let itc99_small =
  [ "b01"; "b02"; "b03"; "b04"; "b05"; "b06"; "b07"; "b08"; "b09"; "b10"; "b11"; "b12"; "b13" ]

let test_reference_schedules () =
  let module D = Ee_sim.Delay_model in
  List.iter
    (fun id ->
      let a = artifact id in
      List.iter
        (fun (variant, pl) ->
          let vectors = random_vectors pl ~waves:12 ~seed:11 in
          List.iter
            (fun (schedule, delays) ->
              check_against_reference (Printf.sprintf "%s %s %s" id variant schedule) ?delays pl
                vectors)
            [
              ("unit", None);
              ( "adversarial-ee",
                Some
                  (D.rounds_of_delays (D.adversarial_ee pl ~gate_delay:1.0 ~slowdown:4.0)
                     ~resolution:3) );
              ( "extremal",
                Some
                  (D.rounds_of_delays (D.extremal pl ~gate_delay:1.0 ~spread:0.5 ~seed:2002)
                     ~resolution:4) );
              ( "jittered",
                Some
                  (D.rounds_of_delays (D.jittered pl ~gate_delay:1.0 ~spread:0.75 ~seed:2002)
                     ~resolution:4) );
            ])
        [ ("plain", a.Ee_report.Pipeline.pl); ("ee", a.Ee_report.Pipeline.pl_ee) ])
    itc99_small

let test_reference_fault_hooks () =
  List.iter
    (fun id ->
      let pl = (artifact id).Ee_report.Pipeline.pl_ee in
      let vectors = random_vectors pl ~waves:8 ~seed:5 in
      List.iter
        (fun f ->
          check_against_reference
            (id ^ ": " ^ Ee_fault.Fault.to_string f)
            ~hooks:(Ee_fault.Fault.hooks f) pl vectors)
        (Ee_fault.Fault.enumerate pl ~waves:8))
    [ "b01"; "b02"; "b06" ]

(* The stall forensics' cycle search, which reads tokens off rails and
   phases through arc roles, against the transcribed marking and
   [Marked_graph.token_free_cycle] over it, on every deadlock of the
   b01-b13 EE campaigns: the stall as the campaign reports it (a
   differential wave) and as a cold run of the fault reaches it. *)
let test_stall_search_matches_marking () =
  let checked = ref 0 in
  List.iter
    (fun id ->
      let a = artifact id in
      let pl = a.Ee_report.Pipeline.pl_ee in
      let r = Ee_fault.Campaign.run ~waves:16 ~seed:2002 ~bench:id pl a.Ee_report.Pipeline.netlist in
      let vectors = random_vectors pl ~waves:16 ~seed:2002 in
      let mg = Reference.marked_graph pl in
      List.iter
        (fun (rc : Ee_fault.Campaign.record) ->
          match rc.Ee_fault.Campaign.outcome with
          | Ee_fault.Campaign.Deadlock reported ->
              let label = id ^ ": " ^ Ee_fault.Fault.to_string rc.Ee_fault.Campaign.fault in
              let sim = Rail_sim.create ~hooks:(Ee_fault.Fault.hooks rc.Ee_fault.Campaign.fault) pl in
              let rec stall = function
                | [] -> Alcotest.failf "%s: the cold run does not stall" label
                | v :: vs -> (
                    match Rail_sim.apply sim v with
                    | _ -> stall vs
                    | exception Rail_sim.Stalled s -> s)
              in
              let cold = stall vectors in
              let wave = if cold.Rail_sim.stall_wave land 1 = 0 then Ee_phased.Ledr.Odd else Even in
              let expected =
                Reference.blamed_cycle pl mg ~rails:(Rail_sim.rails sim)
                  ~gate_phase:(Rail_sim.phases sim) ~wave
              in
              let show c = String.concat "," (List.map string_of_int c) in
              if cold.Rail_sim.blamed_cycle <> expected || reported.Rail_sim.blamed_cycle <> expected
              then
                Alcotest.failf "%s: blamed [%s] cold, [%s] in the campaign, marking gives [%s]"
                  label (show cold.Rail_sim.blamed_cycle) (show reported.Rail_sim.blamed_cycle)
                  (show expected);
              incr checked
          | _ -> ())
        r.Ee_fault.Campaign.records)
    itc99_small;
  Alcotest.(check bool) "deadlocks checked" true (!checked > 1000)

(* A copy continues from the original's state, independently of it, and
   [same_state] tracks exactly that. *)
let test_copy_contract () =
  let _, _, pl_ee = build "b12" in
  let vectors = Array.of_list (random_vectors pl_ee ~waves:12 ~seed:8) in
  let t = Rail_sim.create pl_ee in
  for w = 0 to 5 do
    ignore (Rail_sim.apply t vectors.(w))
  done;
  let c = Rail_sim.copy t ~hooks:Rail_sim.no_hooks in
  Alcotest.(check bool) "a fresh copy is in the same state" true (Rail_sim.same_state t c);
  let outs_c, _ = Rail_sim.apply c vectors.(6) in
  Alcotest.(check bool) "applying the copy leaves the original behind" false
    (Rail_sim.same_state t c);
  let outs_t, _ = Rail_sim.apply t vectors.(6) in
  Alcotest.(check bool) "same wave, same outputs" true (outs_c = outs_t);
  Alcotest.(check bool) "same wave, same state" true (Rail_sim.same_state t c);
  let fresh = Rail_sim.create pl_ee in
  Alcotest.(check bool) "a fresh simulator is in an earlier state" false
    (Rail_sim.same_state t fresh);
  Rail_sim.reset t;
  Alcotest.(check bool) "reset returns to the initial state" true (Rail_sim.same_state t fresh);
  (* The copy's hooks are its own: dropping every firing stalls the copy
     only. *)
  let dropping =
    Rail_sim.copy c
      ~hooks:{ Rail_sim.no_hooks with Rail_sim.drop_fire = (fun ~wave:_ ~gate:_ -> true) }
  in
  (match Rail_sim.apply dropping vectors.(7) with
  | _ -> Alcotest.fail "a copy that drops every firing must stall"
  | exception Rail_sim.Stalled s ->
      Alcotest.(check int) "stall in the copy's wave" 7 s.Rail_sim.stall_wave);
  let outs, _ = Rail_sim.apply c vectors.(7) in
  let ref_sim = Rail_sim.create pl_ee in
  let expected = ref [||] in
  for w = 0 to 7 do
    expected := fst (Rail_sim.apply ref_sim vectors.(w))
  done;
  Alcotest.(check bool) "the copy it was made from is unaffected" true (outs = !expected)

(* A healthy wave allocates only its result: the output array and the
   pair around it. *)
let test_wave_allocation () =
  let _, _, pl_ee = build "b12" in
  let vectors = Array.of_list (random_vectors pl_ee ~waves:100 ~seed:9) in
  let t = Rail_sim.create pl_ee in
  ignore (Rail_sim.apply t vectors.(0));
  Rail_sim.reset t;
  let before = Gc.minor_words () in
  for w = 0 to 99 do
    ignore (Rail_sim.apply t vectors.(w))
  done;
  let words = Gc.minor_words () -. before in
  let sinks = Array.length (Pl.sink_ids pl_ee) in
  let bound = float_of_int (100 * (sinks + 8)) in
  if words > bound then
    Alcotest.failf "100 waves allocated %.0f minor words, bound %.0f" words bound

let suite =
  ( "rail-sim",
    [
      Alcotest.test_case "matches golden model" `Quick test_matches_golden;
      Alcotest.test_case "early fires observed" `Quick test_early_fires_observed;
      Alcotest.test_case "no early without EE" `Quick test_no_early_without_ee;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "phase alternation" `Quick test_phase_alternation_across_waves;
      Alcotest.test_case "single gate protocol" `Quick test_single_gate_protocol;
      Alcotest.test_case "double-rail fault detected" `Quick test_double_rail_fault_detected;
      Alcotest.test_case "token-loss stall forensics" `Quick test_token_loss_stall_forensics;
      Alcotest.test_case "delay-schedule invariance" `Quick test_delay_schedule_invariance;
      Alcotest.test_case "delay validation" `Quick test_delay_validation;
      Alcotest.test_case "matches reference under delay schedules" `Quick test_reference_schedules;
      Alcotest.test_case "matches reference under every fault hook" `Quick
        test_reference_fault_hooks;
      Alcotest.test_case "stall cycle search = token_free_cycle over the marking" `Slow
        test_stall_search_matches_marking;
      Alcotest.test_case "copy and same_state contract" `Quick test_copy_contract;
      Alcotest.test_case "healthy waves allocate only their result" `Quick test_wave_allocation;
    ] )
