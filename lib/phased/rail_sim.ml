module Lut4 = Ee_logic.Lut4
module Marked_graph = Ee_markedgraph.Marked_graph

exception Protocol_violation of string

type hooks = {
  on_latch : wave:int -> gate:int -> Ledr.rails -> Ledr.rails;
  drop_fire : wave:int -> gate:int -> bool;
  extra_fire : wave:int -> gate:int -> bool;
  trigger_seen : wave:int -> master:int -> bool -> bool;
}

let no_hooks =
  {
    on_latch = (fun ~wave:_ ~gate:_ r -> r);
    drop_fire = (fun ~wave:_ ~gate:_ -> false);
    extra_fire = (fun ~wave:_ ~gate:_ -> false);
    trigger_seen = (fun ~wave:_ ~master:_ v -> v);
  }

type stall = {
  stall_wave : int;
  unfired : int list;
  waiting_on : (int * int list) list;
  roots : int list;
  stale_sources : int list;
  blamed_cycle : int list;
}

exception Stalled of stall

let stall_to_string s =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf
    "stall at wave %d: unfired=[%s] roots=[%s] stale-sources=[%s] token-free cycle=[%s]"
    s.stall_wave (ints s.unfired) (ints s.roots) (ints s.stale_sources) (ints s.blamed_cycle)

type t = {
  pl : Pl.t;
  hooks : hooks;
  delays : int array; (* extra firing rounds per gate once enabled *)
  rails : Ledr.rails array; (* output wire pair per gate *)
  gate_phase : Ledr.phase array;
  reg_state : bool array;
  source_pos : int array; (* vector index of each source, by gate id *)
  mutable wave_phase : Ledr.phase; (* phase carried by the NEXT wave's tokens *)
  mutable wave_no : int; (* waves applied so far; the hooks' wave index *)
}

let violation fmt = Printf.ksprintf (fun s -> raise (Protocol_violation s)) fmt

let create ?(hooks = no_hooks) ?delays pl =
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
  let driven = t.hooks.on_latch ~wave:t.wave_no ~gate:i fresh in
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
let stalled_marking t mg =
  let gates = Pl.gates t.pl in
  let wave = t.wave_phase in
  let fired i =
    match gates.(i).Pl.kind with
    | Pl.Gate _ | Pl.Trigger _ | Pl.Sink _ -> t.gate_phase.(i) = wave
    | Pl.Source _ | Pl.Const_source _ | Pl.Register _ -> true
  in
  let fresh i = Ledr.phase t.rails.(i) = wave in
  let dep_of d s =
    Array.exists (( = ) s) gates.(d).Pl.fanin
    || (match Pl.ee t.pl d with Some e -> e.Pl.trigger = s | None -> false)
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
  let mg = Pl.to_marked_graph t.pl in
  let blamed_cycle =
    match Marked_graph.token_free_cycle mg (stalled_marking t mg) with
    | Some c -> c
    | None -> []
  in
  { stall_wave = t.wave_no; unfired; waiting_on; roots; stale_sources; blamed_cycle }

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
      if t.gate_phase.(i) <> wave && not (t.hooks.drop_fire ~wave:wave_no ~gate:i) then begin
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
                    && t.hooks.trigger_seen ~wave:wave_no ~master:i
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
        if t.hooks.extra_fire ~wave:wave_no ~gate:i then
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
  if unfired <> [] then raise (Stalled (diagnose_stall t ~unfired));
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

let run_check pl nl ~vectors ~seed =
  let rng = Ee_util.Prng.create seed in
  let t = create pl in
  let st = ref (Ee_netlist.Netlist.initial_state nl) in
  let width = Array.length (Pl.source_ids pl) in
  let ok = ref true in
  for _ = 1 to vectors do
    if !ok then begin
      let vec = Ee_util.Prng.bool_vector rng width in
      let outs, _ = apply t vec in
      let expected, st' = Ee_netlist.Netlist.step nl !st vec in
      st := st';
      if outs <> expected then ok := false
    end
  done;
  !ok
