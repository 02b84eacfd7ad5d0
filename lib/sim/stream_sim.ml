module Pl = Ee_phased.Pl
module Flat = Ee_phased.Flat
module Lut4 = Ee_logic.Lut4
module Timing = Ee_phased.Timing

type config = Timing.t = { gate_delay : float; ee_overhead : float }

let default_config = Timing.default

type result = {
  waves : int;
  outputs : bool array array;
  completion_times : float array;
  cycle_time : float;
  makespan : float;
  early_fires : int;
}

exception Unsafe of string

type token = { time : float; value : bool }

type arc = {
  src : int;
  dst : int;
  is_data : bool;
  mutable slot : token option;
}

(* Because the marked graph is safe, every arc is a capacity-one FIFO and
   the untimed token game order coincides with the timed order; tokens carry
   timestamps, so gates may be processed from a worklist in any order. *)
let run ?(config = default_config) ?delays pl ~vectors =
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
          (Unsafe
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
      raise (Unsafe "simulation did not quiesce (possible livelock)");
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
  { waves; outputs; completion_times; cycle_time; makespan; early_fires = !early_fires }

let run_random ?config ?delays pl ~waves ~seed =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Pl.source_ids pl) in
  run ?config ?delays pl
    ~vectors:(List.init waves (fun _ -> Ee_util.Prng.bool_vector rng width))

let throughput_gain ?config pl pl_ee ~waves ~seed =
  let base = run_random ?config pl ~waves ~seed in
  let ee = run_random ?config pl_ee ~waves ~seed in
  Ee_util.Stats.percent_change ~before:base.cycle_time ~after:ee.cycle_time
