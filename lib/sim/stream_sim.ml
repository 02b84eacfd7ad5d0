module Pl = Ee_phased.Pl
module Lut4 = Ee_logic.Lut4

type config = { gate_delay : float; ee_overhead : float }

let default_config =
  { gate_delay = Ee_phased.Timing.gate_delay; ee_overhead = Ee_phased.Timing.ee_overhead }

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

(* Packed LUT index of a gate's input tokens. *)
let minterm tokens =
  let m = ref 0 in
  Array.iteri (fun k tok -> if tok.value then m := !m lor (1 lsl k)) tokens;
  !m

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
  let gates = Pl.gates pl in
  let n = Array.length gates in
  (match delays with
  | Some d when Array.length d <> n ->
      invalid_arg "Stream_sim.run: delays length mismatch"
  | _ -> ());
  let delay i =
    match delays with Some d -> d.(i) | None -> config.gate_delay
  in
  let arcs = ref [] in
  let n_arcs = ref 0 in
  let in_arcs = Array.make n [] in
  let out_data = Array.make n [] in
  let out_feedback = Array.make n [] in
  let add_arc src dst is_data initial =
    let a = { src; dst; is_data; slot = initial } in
    arcs := a :: !arcs;
    incr n_arcs;
    in_arcs.(dst) <- a :: in_arcs.(dst);
    if is_data then out_data.(src) <- a :: out_data.(src)
    else out_feedback.(src) <- a :: out_feedback.(src);
    a
  in
  (* Per-gate map from fanin position to its data arc (ee trigger arc is
     tracked separately). *)
  let fanin_arcs = Array.make n [||] in
  let efire_arc = Array.make n None in
  for i = 0 to n - 1 do
    let seen = Hashtbl.create 4 in
    let arc_for src =
      match Hashtbl.find_opt seen src with
      | Some a -> a
      | None ->
          let initial =
            match gates.(src).Pl.kind with
            | Pl.Register init -> Some { time = 0.; value = init }
            | Pl.Const_source v -> Some { time = 0.; value = v }
            | _ -> None
          in
          let a = add_arc src i true initial in
          (* Complementary feedback arc: marked iff the data arc is not.
             Self-loops (a register reading itself) need none — the marked
             data arc is already the one-token circuit. *)
          if src <> i then begin
            let fb_initial =
              if initial = None then Some { time = 0.; value = false } else None
            in
            ignore (add_arc i src false fb_initial)
          end;
          Hashtbl.replace seen src a;
          a
    in
    fanin_arcs.(i) <- Array.map arc_for gates.(i).Pl.fanin;
    match Pl.ee pl i with
    | Some e -> efire_arc.(i) <- Some (arc_for e.Pl.trigger)
    | None -> ()
  done;
  (* Environment state: every source gate injects the same wave sequence,
     each tracking its own wave cursor (sources are acknowledged
     independently, so their cursors can be out of step transiently). *)
  let vector_arr = Array.of_list vectors in
  let source_pos = Array.make n (-1) in
  Array.iteri (fun k id -> source_pos.(id) <- k) (Pl.source_ids pl);
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
  let take a =
    match a.slot with
    | Some tok ->
        a.slot <- None;
        tok
    | None -> assert false
  in
  let fire i =
    queued.(i) <- false;
    if enabled i then begin
      let g = gates.(i) in
      (* Gather and clear all input tokens. *)
      let fanin_tokens = Array.map (fun a -> Option.get a.slot) fanin_arcs.(i) in
      let trigger_token = Option.map (fun a -> Option.get a.slot) efire_arc.(i) in
      let t_all =
        List.fold_left (fun acc a -> max acc (Option.get a.slot).time) 0. in_arcs.(i)
      in
      (* Consumers' acknowledges bound any firing, early ones included: the
         output latch must be free before a new token can be emitted. *)
      let t_acks =
        List.fold_left
          (fun acc a -> if a.is_data then acc else max acc (Option.get a.slot).time)
          0. in_arcs.(i)
      in
      List.iter (fun a -> ignore (take a)) in_arcs.(i);
      let emit_output t_out value =
        List.iter (fun a -> deposit a { time = t_out; value }) out_data.(i)
      in
      let emit_feedback t =
        List.iter (fun a -> deposit a { time = t; value = false }) out_feedback.(i)
      in
      (match g.Pl.kind with
      | Pl.Source _ ->
          let w = source_wave.(i) in
          if w < Array.length vector_arr then begin
            source_wave.(i) <- w + 1;
            let value = vector_arr.(w).(source_pos.(i)) in
            emit_output t_all value;
            emit_feedback t_all
          end
      | Pl.Const_source v ->
          emit_output t_all v;
          emit_feedback t_all
      | Pl.Register _ ->
          let d = fanin_tokens.(0) in
          emit_output (t_all +. delay i) d.value;
          emit_feedback (t_all +. delay i)
      | Pl.Sink _ ->
          let d = fanin_tokens.(0) in
          Queue.push d (sink_records.(sink_index.(i)));
          emit_feedback d.time
      | Pl.Trigger { func; _ } ->
          emit_output (t_all +. delay i) (Lut4.eval_bits func (minterm fanin_tokens));
          emit_feedback (t_all +. delay i)
      | Pl.Gate func ->
          let value = Lut4.eval_bits func (minterm fanin_tokens) in
          let t_complete =
            t_all +. delay i
            +. (if trigger_token = None then 0. else config.ee_overhead)
          in
          let t_out =
            match (trigger_token, Pl.ee pl i) with
            | Some trig, Some e when trig.value ->
                (* Early path: the subset tokens, the efire token and the
                   consumers' acknowledges gate the early C-element. *)
                let t_subset =
                  Ee_util.Bits.fold_bits e.Pl.support
                    (fun acc p -> max acc fanin_tokens.(p).time)
                    0.
                in
                let t_early =
                  max (max t_subset trig.time) t_acks +. config.ee_overhead
                in
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
