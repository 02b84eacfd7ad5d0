module Pl = Ee_phased.Pl
module Flat = Ee_phased.Flat

type config = Ee_phased.Timing.t = { gate_delay : float; ee_overhead : float }

let default_config = Ee_phased.Timing.default

type wave = {
  outputs : bool array;
  output_time : float;
  settle_time : float;
  early_fires : int;
}

(* Gate lists are in [Pl.topo] order.  A gate is time-dynamic when it is
   an EE master or reads a time-dynamic gate; every other gate fires at the
   same time on every wave, so [create] leaves its time in [times] and
   folds its settle and output contributions into [base]. *)
type t = {
  flat : Flat.t;
  config : config;
  delays : float array; (* per-gate firing latency *)
  masters : int; (* EE master count *)
  topo : int array; (* every gate: the value pass of [apply] *)
  regs : int array; (* register ids, ascending *)
  cone : int array; (* backward closure of the triggers: the value pass of a run *)
  cone_regs : int array; (* registers in the cone *)
  cone_reads_sources : bool;
  dyn : int array; (* time-dynamic gates other than sinks *)
  dyn_regs : int array; (* registers with a time-dynamic D input *)
  dyn_sinks : int array; (* sinks of time-dynamic gates *)
  base : float array; (* output and settle time of the static gates *)
  clock : float array; (* output and settle time of the last wave *)
  state : bool array; (* held token values of constants and registers *)
  values : bool array; (* scratch, per wave *)
  times : float array; (* static times; the dynamic ones are rewritten every wave *)
}

(* [Stdlib.max] on floats, inlined so that no time is boxed; the same
   comparison keeps every time bit-identical to the max-plus rule, and the
   max of a set of non-negative times does not depend on the fold order. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* The time pass: [gates], then the registers [regs] firing on their D
   arrival, then the [sinks].  Starting from [t.base], it folds the output
   and settle times into [t.clock] and returns the masters that fired
   early.  The float accumulators are local refs that never escape, so
   they stay unboxed. *)
let time_pass t ~gates ~regs ~sinks =
  let { Flat.code; arg; fstart; fanin; _ } = t.flat in
  let values = t.values and times = t.times and delays = t.delays in
  let overhead = t.config.ee_overhead in
  let settle = ref t.base.(1) and early = ref 0 in
  for k = 0 to Array.length gates - 1 do
    let i = gates.(k) in
    let arrival = ref 0. in
    for j = fstart.(i) to fstart.(i + 1) - 1 do
      arrival := fmax !arrival times.(fanin.(j))
    done;
    if code.(i) <> Flat.Master then begin
      let normal = !arrival +. delays.(i) in
      times.(i) <- normal;
      settle := fmax !settle normal
    end
    else begin
      (* [Ee_phased.Timing]'s master rule, written out: the default dune
         profile compiles every module with [-opaque], so a call into
         [Timing] would never be inlined and would box its float result
         for every master on every wave. *)
      let tr = arg.(i) in
      let trig_time = times.(tr) in
      let guarded = fmax !arrival trig_time +. delays.(i) +. overhead in
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
  for k = 0 to Array.length regs - 1 do
    let r = regs.(k) in
    settle := fmax !settle (times.(fanin.(fstart.(r))) +. delays.(r))
  done;
  let output = ref t.base.(0) in
  for k = 0 to Array.length sinks - 1 do
    let s = sinks.(k) in
    let time = times.(arg.(s)) in
    times.(s) <- time;
    settle := fmax !settle time;
    output := fmax !output time
  done;
  t.clock.(0) <- !output;
  t.clock.(1) <- !settle;
  !early

(* One wave: the value pass over [order] latching the registers [latch],
   then the time pass over the dynamic gates.  Returns the early firings;
   the wave's output and settle times are left in [t.clock]. *)
let step t ~order ~latch vector =
  let values = t.values and state = t.state in
  let { Flat.code; arg; func; fstart; fanin; _ } = t.flat in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    match code.(i) with
    | Source -> values.(i) <- vector.(arg.(i))
    | Const | Register -> values.(i) <- state.(i)
    | Sink -> values.(i) <- values.(arg.(i))
    | Lut | Trigger | Master ->
        let first = fstart.(i) in
        let m = ref 0 in
        for j = first to fstart.(i + 1) - 1 do
          m := !m lor (Bool.to_int values.(fanin.(j)) lsl (j - first))
        done;
        values.(i) <- ((func.(i) :> int) lsr !m) land 1 = 1
  done;
  (* Registers produce the next wave's token from their D input. *)
  for k = 0 to Array.length latch - 1 do
    let r = latch.(k) in
    state.(r) <- values.(fanin.(fstart.(r)))
  done;
  time_pass t ~gates:t.dyn ~regs:t.dyn_regs ~sinks:t.dyn_sinks

let create_with_delays ?(config = default_config) ~delays pl =
  let n = Array.length (Pl.gates pl) in
  if Array.length delays <> n then invalid_arg "Sim.create_with_delays: delay count";
  let flat = Flat.of_pl ~caller:"Sim.create" pl in
  let { Flat.code; arg; fstart; fanin; _ } = flat in
  let state = Array.init n (fun i -> (code.(i) = Const || code.(i) = Register) && arg.(i) = 1) in
  let all = Array.init n Fun.id and topo = Pl.topo pl in
  let regs = Flat.select (fun i -> code.(i) = Register) all in
  let reads mark i =
    let r = ref false in
    for j = fstart.(i) to fstart.(i + 1) - 1 do
      r := !r || mark.(fanin.(j))
    done;
    !r
  in
  (* Sources, constants and registers start every wave at time 0. *)
  let dynamic = Array.make n false in
  Array.iter
    (fun i ->
      dynamic.(i) <-
        (match code.(i) with
        | Source | Const | Register -> false
        | Master -> true
        | Lut | Trigger | Sink -> reads dynamic i))
    topo;
  (* The triggers' backward closure over fanins; a register's fanin is its
     D input, evaluated in the previous wave. *)
  let masters = Flat.select (fun i -> code.(i) = Master) all in
  let cone = Array.make n false and stack = Stack.create () in
  Array.iter (fun m -> Stack.push arg.(m) stack) masters;
  while not (Stack.is_empty stack) do
    let i = Stack.pop stack in
    if not cone.(i) then begin
      cone.(i) <- true;
      for j = fstart.(i) to fstart.(i + 1) - 1 do
        Stack.push fanin.(j) stack
      done
    end
  done;
  let select = Flat.select and is_sink i = code.(i) = Sink in
  let d_dynamic r = dynamic.(fanin.(fstart.(r))) in
  let t =
    { flat; config; delays = Array.copy delays; masters = Array.length masters; topo; regs;
      cone = select (fun i -> cone.(i)) topo;
      cone_regs = select (fun r -> cone.(r)) regs;
      cone_reads_sources = Array.exists (fun i -> cone.(i) && code.(i) = Source) topo;
      dyn = select (fun i -> dynamic.(i) && not (is_sink i)) topo;
      dyn_regs = select d_dynamic regs;
      dyn_sinks = select (fun i -> dynamic.(i) && is_sink i) topo;
      base = [| 0.; 0. |]; clock = [| 0.; 0. |]; state;
      values = Array.make n false; times = Array.make n 0. }
  in
  ignore
    (time_pass t
       ~gates:(select (fun i -> (code.(i) = Lut || code.(i) = Trigger) && not dynamic.(i)) topo)
       ~regs:(select (fun r -> not (d_dynamic r)) regs)
       ~sinks:(select (fun i -> is_sink i && not dynamic.(i)) topo));
  Array.blit t.clock 0 t.base 0 2;
  t

let create ?(config = default_config) pl =
  create_with_delays ~config
    ~delays:(Array.make (Array.length (Pl.gates pl)) config.gate_delay)
    pl

let reset t = Array.iter (fun r -> t.state.(r) <- t.flat.Flat.arg.(r) = 1) t.regs

let check_width t vector =
  if Array.length vector <> Array.length (Pl.source_ids t.flat.Flat.pl) then
    invalid_arg "Sim.apply: wrong vector length"

let apply t vector =
  check_width t vector;
  let early = step t ~order:t.topo ~latch:t.regs vector in
  let outputs = Array.map (fun s -> t.values.(s)) (Pl.sink_ids t.flat.Flat.pl) in
  { outputs; output_time = t.clock.(0); settle_time = t.clock.(1); early_fires = early }

let probe t = (Array.copy t.values, Array.copy t.times)

type run = {
  waves : int;
  avg_output_time : float;
  avg_settle_time : float;
  output_times : float array;
  settle_times : float array;
  early_fire_rate : float;
}

(* Runs [waves] waves of a fresh simulator; [vector k] is called just
   before wave [k].  The value pass walks only the triggers' cone. *)
let run_waves t waves vector =
  if waves <= 0 then invalid_arg "Sim.run_vectors: no vectors";
  let output_times = Array.make waves 0. in
  let settle_times = Array.make waves 0. in
  let early_sum = ref 0 in
  for k = 0 to waves - 1 do
    early_sum := !early_sum + step t ~order:t.cone ~latch:t.cone_regs (vector k);
    output_times.(k) <- t.clock.(0);
    settle_times.(k) <- t.clock.(1)
  done;
  {
    waves;
    avg_output_time = Ee_util.Stats.mean output_times;
    avg_settle_time = Ee_util.Stats.mean settle_times;
    output_times;
    settle_times;
    early_fire_rate =
      (if t.masters = 0 then 0.
       else float_of_int !early_sum /. float_of_int (t.masters * waves));
  }

let run_vectors ?(config = default_config) pl vectors =
  let vectors = Array.of_list vectors in
  let t = create ~config pl in
  run_waves t (Array.length vectors) (fun k ->
      check_width t vectors.(k);
      vectors.(k))

let run_random ?(config = default_config) pl ~vectors ~seed =
  let t = create ~config pl in
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Pl.source_ids pl) in
  (* Only the cone reads the vector, so a cone without sources draws none. *)
  run_waves t vectors (fun _ ->
      if t.cone_reads_sources then Ee_util.Prng.bool_vector rng width else [||])

let equiv_random pl nl ~vectors ~seed =
  let t = create pl in
  Ee_netlist.Netlist.agrees_random nl ~vectors ~seed (fun v -> (apply t v).outputs)
