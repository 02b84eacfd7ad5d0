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

(* [Stdlib.max] and [min] on floats, without the polymorphic call that boxes
   its arguments. *)
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] fmin (a : float) b = if a <= b then a else b

(* Because the marked graph is safe, every arc is a capacity-one FIFO and
   the untimed token game order coincides with the timed order; tokens carry
   timestamps, so gates may be processed from a worklist in any order.  The
   arcs are [Flat]'s slots: per slot, the data arc's token (time, value,
   full) and its acknowledge's (time, full; a self-loop has none). *)
let run ?(config = default_config) ?delays pl ~vectors =
  let n = Array.length (Pl.gates pl) in
  (match delays with
  | Some d when Array.length d <> n ->
      invalid_arg "Stream_sim.run: delays length mismatch"
  | _ -> ());
  let f = Flat.of_pl ~caller:"Stream_sim.run" pl in
  let { Flat.code; arg; func; support; pstart; producer; pmask; _ } = f in
  let { Flat.cstart; cslot; owner } = Flat.consumers f in
  let delay = match delays with Some d -> d | None -> Array.make n config.gate_delay in
  let slots = Array.length producer in
  let dtime = Array.make slots 0. and dvalue = Array.make slots false in
  let dfull = Array.make slots false in
  let atime = Array.make slots 0. and afull = Array.make slots false in
  (* Per gate: its input arcs, and how many of them are empty; it is
     enabled at 0.  An acknowledge starts full exactly when its data arc
     starts empty. *)
  let inputs = Array.make n 0 and empty = Array.make n 0 in
  let add_input i full =
    inputs.(i) <- inputs.(i) + 1;
    if not full then empty.(i) <- empty.(i) + 1
  in
  for j = 0 to slots - 1 do
    let i = owner.(j) and p = producer.(j) in
    dfull.(j) <- Flat.token f j = 1;
    dvalue.(j) <- dfull.(j) && arg.(p) = 1;
    add_input i dfull.(j);
    if p <> i then begin
      afull.(j) <- not dfull.(j);
      add_input p afull.(j)
    end
  done;
  (* Environment state: every source gate injects the same wave sequence,
     each tracking its own wave cursor (sources are acknowledged
     independently, so their cursors can be out of step transiently). *)
  let vector_arr = Array.of_list vectors in
  let total_waves = Array.length vector_arr in
  let source_wave = Array.make n 0 in
  (* Sink [k]'s first [total_waves] tokens, wave [w] at [k * total_waves + w]. *)
  let sink_ids = Pl.sink_ids pl in
  let sinks = Array.length sink_ids in
  let sink_index = Array.make n (-1) in
  Array.iteri (fun k id -> sink_index.(id) <- k) sink_ids;
  let received = Array.make sinks 0 in
  let out_time = Array.make (sinks * total_waves) 0. in
  let out_value = Array.make (sinks * total_waves) false in
  let undelivered = ref (if total_waves = 0 then 0 else sinks) in
  let early_fires = ref 0 in
  (* A FIFO worklist: a ring of [n] gates, each queued at most once. *)
  let queue = Array.make n 0 and head = ref 0 and queued_count = ref 0 in
  let queued = Array.make n false in
  let enqueue i =
    if (not queued.(i)) && empty.(i) = 0 then begin
      queued.(i) <- true;
      let k = !head + !queued_count in
      queue.(if k >= n then k - n else k) <- i;
      incr queued_count
    end
  in
  let unsafe src dst =
    raise (Unsafe (Printf.sprintf "arc %d -> %d received a second token" src dst))
  in
  (* Deposits go in descending slot order; the worklist order, and with it
     how often free-running parts fire before the sinks are done, depends
     on it. *)
  let emit_output i t_out value =
    for k = cstart.(i + 1) - 1 downto cstart.(i) do
      let j = cslot.(k) in
      let c = owner.(j) in
      if dfull.(j) then unsafe i c;
      dfull.(j) <- true;
      dtime.(j) <- t_out;
      dvalue.(j) <- value;
      empty.(c) <- empty.(c) - 1;
      enqueue c
    done
  in
  let emit_feedback i t =
    for j = pstart.(i + 1) - 1 downto pstart.(i) do
      let p = producer.(j) in
      if p <> i then begin
        if afull.(j) then unsafe i p;
        afull.(j) <- true;
        atime.(j) <- t;
        empty.(p) <- empty.(p) - 1;
        enqueue p
      end
    done
  in
  let fire i =
    queued.(i) <- false;
    if empty.(i) = 0 then begin
      (* Gather the input values by fanin position, the trigger token and
         the arrival of the master's subset inputs, then consume every input
         token. *)
      empty.(i) <- inputs.(i);
      let m = ref 0 and trigger = ref false and t_trigger = ref 0. in
      let t_subset = ref 0. and t_all = ref 0. in
      for j = pstart.(i) to pstart.(i + 1) - 1 do
        let t = dtime.(j) and mask = pmask.(j) in
        if dvalue.(j) then m := !m lor (mask land (Flat.trigger_bit - 1));
        if mask land Flat.trigger_bit <> 0 then begin
          trigger := dvalue.(j);
          t_trigger := t
        end;
        if mask land support.(i) <> 0 then t_subset := fmax !t_subset t;
        t_all := fmax !t_all t;
        dfull.(j) <- false
      done;
      (* Consumers' acknowledges bound any firing, early ones included: the
         output latch must be free before a new token can be emitted. *)
      let t_acks = ref 0. in
      for k = cstart.(i) to cstart.(i + 1) - 1 do
        let j = cslot.(k) in
        if owner.(j) <> i then begin
          t_acks := fmax !t_acks atime.(j);
          afull.(j) <- false
        end
      done;
      let t_all = fmax !t_all !t_acks and t_acks = !t_acks in
      (match code.(i) with
      | Flat.Source ->
          let w = source_wave.(i) in
          if w < total_waves then begin
            source_wave.(i) <- w + 1;
            emit_output i t_all vector_arr.(w).(arg.(i));
            emit_feedback i t_all
          end
      | Flat.Const ->
          emit_output i t_all (arg.(i) = 1);
          emit_feedback i t_all
      | Flat.Register ->
          emit_output i (t_all +. delay.(i)) (!m = 1);
          emit_feedback i (t_all +. delay.(i))
      | Flat.Sink ->
          (* A sink's only input token is its fanin's. *)
          let k = sink_index.(i) in
          let w = received.(k) in
          if w < total_waves then begin
            out_time.((k * total_waves) + w) <- t_all;
            out_value.((k * total_waves) + w) <- !m = 1;
            received.(k) <- w + 1;
            if w + 1 = total_waves then decr undelivered
          end;
          emit_feedback i t_all
      | Flat.Lut | Flat.Trigger ->
          emit_output i (t_all +. delay.(i)) (Lut4.eval_bits func.(i) !m);
          emit_feedback i (t_all +. delay.(i))
      | Flat.Master ->
          let value = Lut4.eval_bits func.(i) !m in
          let t_complete = Timing.guarded config ~delay:delay.(i) t_all in
          let t_out =
            if !trigger then begin
              (* Early path: the subset tokens, the efire token and the
                 consumers' acknowledges gate the early C-element. *)
              let t_early = Timing.early config (fmax (fmax !t_subset !t_trigger) t_acks) in
              if t_early < t_complete then incr early_fires;
              fmin t_early t_complete
            end
            else t_complete
          in
          emit_output i t_out value;
          emit_feedback i t_complete);
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
  while !queued_count > 0 && !undelivered > 0 do
    incr steps;
    if !steps > max_steps then
      raise (Unsafe "simulation did not quiesce (possible livelock)");
    let i = queue.(!head) in
    head := if !head + 1 = n then 0 else !head + 1;
    decr queued_count;
    fire i
  done;
  (* Collect per-wave outputs. *)
  let waves = Array.fold_left min total_waves received in
  let outputs =
    Array.init waves (fun w -> Array.init sinks (fun k -> out_value.((k * total_waves) + w)))
  in
  let completion_times = Array.make waves 0. in
  for k = 0 to sinks - 1 do
    for w = 0 to waves - 1 do
      completion_times.(w) <- fmax completion_times.(w) out_time.((k * total_waves) + w)
    done
  done;
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
