module Pl = Ee_phased.Pl
module Lut4 = Ee_logic.Lut4

type config = { gate_delay : float; ee_overhead : float }

let default_config = { gate_delay = 1.0; ee_overhead = 0.25 }

type wave = {
  outputs : bool array;
  output_time : float;
  settle_time : float;
  early_fires : int;
}

(* Gate kinds of the compiled form; [Hold] covers constant generators and
   registers, whose wave-start token values live in [state]. *)
type code = Source | Hold | Lut | Master | Sink

type t = {
  pl : Pl.t;
  config : config;
  delays : float array; (* per-gate firing latency *)
  code : code array;
  arg : int array; (* source position, register reset value, master's trigger or sink fanin *)
  func : Lut4.t array; (* LUT of gates and triggers *)
  fstart : int array; (* fanins of gate i are fanin.(fstart.(i) .. fstart.(i+1)-1) *)
  fanin : int array;
  regs : int array; (* register ids, ascending *)
  reg_d : int array; (* D fanin of each register *)
  state : bool array; (* held token values, indexed by gate id *)
  values : bool array; (* scratch, per wave *)
  times : float array; (* scratch, per wave *)
}

let create_with_delays ?(config = default_config) ~delays pl =
  let gates = Pl.gates pl in
  let n = Array.length gates in
  if Array.length delays <> n then invalid_arg "Sim.create_with_delays: delay count";
  let malformed fmt = Printf.ksprintf (fun s -> invalid_arg ("Sim.create: " ^ s)) fmt in
  let code = Array.make n Hold and arg = Array.make n 0 and func = Array.make n Lut4.const0 in
  let state = Array.make n false and regs = ref [] in
  Array.iteri (fun k id -> arg.(id) <- k) (Pl.source_ids pl);
  Array.iteri
    (fun i g ->
      let k = Array.length g.Pl.fanin in
      match g.Pl.kind with
      | Pl.Source _ -> code.(i) <- Source
      | Pl.Const_source v -> state.(i) <- v
      | (Pl.Register _ | Pl.Sink _) when k <> 1 -> malformed "gate %d has %d fanins, not 1" i k
      | (Pl.Gate _ | Pl.Trigger _) when k > Lut4.arity -> malformed "gate %d has %d fanins" i k
      | Pl.Register init ->
          regs := i :: !regs;
          arg.(i) <- Bool.to_int init;
          state.(i) <- init
      | Pl.Sink _ ->
          code.(i) <- Sink;
          arg.(i) <- g.Pl.fanin.(0)
      | Pl.Trigger { func = f; _ } | Pl.Gate f -> (
          func.(i) <- f;
          match (g.Pl.kind, Pl.ee pl i) with
          | Pl.Trigger _, _ | _, None -> code.(i) <- Lut
          | _, Some { Pl.trigger = tr; _ } ->
              let is_trigger j = match gates.(j).Pl.kind with Pl.Trigger _ -> true | _ -> false in
              if tr < 0 || tr >= n || not (is_trigger tr) then
                malformed "EE trigger %d of gate %d is not a trigger gate" tr i;
              code.(i) <- Master;
              arg.(i) <- tr))
    gates;
  let fstart = Array.make (n + 1) 0 in
  Array.iteri (fun i g -> fstart.(i + 1) <- fstart.(i) + Array.length g.Pl.fanin) gates;
  let fanin = Array.concat (List.map (fun g -> g.Pl.fanin) (Array.to_list gates)) in
  let regs = Array.of_list (List.rev !regs) in
  { pl; config; delays = Array.copy delays; code; arg; func; fstart; fanin; regs;
    reg_d = Array.map (fun r -> fanin.(fstart.(r))) regs; state;
    values = Array.make n false; times = Array.make n 0. }

let create ?(config = default_config) pl =
  create_with_delays ~config
    ~delays:(Array.make (Array.length (Pl.gates pl)) config.gate_delay)
    pl

let reset t = Array.iter (fun r -> t.state.(r) <- t.arg.(r) = 1) t.regs

(* [Stdlib.max] on floats, inlined so that no time is boxed; the same
   comparison keeps every time bit-identical to the max-plus rule. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* One wave in topological order.  The float accumulators are local refs
   that never escape, so they stay unboxed. *)
let apply t vector =
  if Array.length vector <> Array.length (Pl.source_ids t.pl) then
    invalid_arg "Sim.apply: wrong vector length";
  let values = t.values and times = t.times and delays = t.delays and state = t.state in
  let code = t.code and arg = t.arg and func = t.func and fstart = t.fstart and fanin = t.fanin in
  let overhead = t.config.ee_overhead in
  let settle = ref 0. and early = ref 0 in
  let topo = Pl.topo t.pl in
  for k = 0 to Array.length topo - 1 do
    let i = topo.(k) in
    match code.(i) with
    | Source ->
        values.(i) <- vector.(arg.(i));
        times.(i) <- 0.
    | Hold ->
        values.(i) <- state.(i);
        times.(i) <- 0.
    | Sink ->
        values.(i) <- values.(arg.(i));
        times.(i) <- times.(arg.(i));
        settle := fmax !settle times.(i)
    | Lut | Master ->
        (* Pack the LUT index and fold the fanin arrival in one pass. *)
        let first = fstart.(i) in
        let m = ref 0 and arrival = ref 0. in
        for j = first to fstart.(i + 1) - 1 do
          let f = fanin.(j) in
          if values.(f) then m := !m lor (1 lsl (j - first));
          arrival := fmax !arrival times.(f)
        done;
        values.(i) <- Lut4.eval_bits func.(i) !m;
        let normal = !arrival +. delays.(i) in
        if code.(i) = Lut then begin
          times.(i) <- normal;
          settle := fmax !settle normal
        end
        else begin
          let tr = arg.(i) in
          let trig_time = times.(tr) in
          let guarded = fmax normal (trig_time +. delays.(i)) +. overhead in
          let fire_time =
            if values.(tr) then begin
              let early_time = trig_time +. overhead in
              if early_time < guarded then incr early;
              if guarded <= early_time then guarded else early_time
            end
            else guarded
          in
          times.(i) <- fire_time;
          (* The master's late input tokens must still be absorbed before
             the wave is over, even when the output fired early. *)
          settle := fmax !settle (fmax fire_time !arrival)
        end
  done;
  (* Registers fire on their D arrival, producing the next wave's token. *)
  let regs = t.regs and reg_d = t.reg_d in
  for k = 0 to Array.length regs - 1 do
    settle := fmax !settle (times.(reg_d.(k)) +. delays.(regs.(k)));
    state.(regs.(k)) <- values.(reg_d.(k))
  done;
  let sink_ids = Pl.sink_ids t.pl in
  let outputs = Array.map (fun s -> values.(s)) sink_ids in
  let output_time = ref 0. in
  for k = 0 to Array.length sink_ids - 1 do
    output_time := fmax !output_time times.(sink_ids.(k))
  done;
  { outputs; output_time = !output_time; settle_time = !settle; early_fires = !early }

let probe t = (Array.copy t.values, Array.copy t.times)

type run = {
  waves : int;
  avg_output_time : float;
  avg_settle_time : float;
  output_times : float array;
  settle_times : float array;
  early_fire_rate : float;
}

(* Runs [waves] waves from a fresh reset; [vector k] is called just before
   wave [k] is applied. *)
let run_waves ~config pl waves vector =
  let t = create ~config pl in
  if waves <= 0 then invalid_arg "Sim.run_vectors: no vectors";
  let output_times = Array.make waves 0. in
  let settle_times = Array.make waves 0. in
  let ee_total = Pl.ee_gate_count pl in
  let early_sum = ref 0 in
  for k = 0 to waves - 1 do
    let w = apply t (vector k) in
    output_times.(k) <- w.output_time;
    settle_times.(k) <- w.settle_time;
    early_sum := !early_sum + w.early_fires
  done;
  {
    waves;
    avg_output_time = Ee_util.Stats.mean output_times;
    avg_settle_time = Ee_util.Stats.mean settle_times;
    output_times;
    settle_times;
    early_fire_rate =
      (if ee_total = 0 then 0.
       else float_of_int !early_sum /. float_of_int (ee_total * waves));
  }

let run_vectors ?(config = default_config) pl vectors =
  let vectors = Array.of_list vectors in
  run_waves ~config pl (Array.length vectors) (Array.get vectors)

let run_random ?(config = default_config) pl ~vectors ~seed =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Pl.source_ids pl) in
  run_waves ~config pl vectors (fun _ -> Ee_util.Prng.bool_vector rng width)

let equiv_random pl nl ~vectors ~seed =
  let rng = Ee_util.Prng.create seed in
  let t = create pl in
  let st = ref (Ee_netlist.Netlist.initial_state nl) in
  let width = Array.length (Pl.source_ids pl) in
  let ok = ref true in
  for _ = 1 to vectors do
    if !ok then begin
      let vec = Ee_util.Prng.bool_vector rng width in
      let w = apply t vec in
      let outs, st' = Ee_netlist.Netlist.step nl !st vec in
      st := st';
      if w.outputs <> outs then ok := false
    end
  done;
  !ok
