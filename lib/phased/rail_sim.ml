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

(* A rail pair is a two-bit code: bit 0 the v rail, bit 1 the t rail.
   Phases are bits too (1 is odd). *)
let[@inline] phase_bit c = (c lxor (c lsr 1)) land 1
let[@inline] encode value phase = value lor ((value lxor phase) lsl 1)
let[@inline] next_code c value = encode value (1 - phase_bit c)
let[@inline] hamming a b = let x = a lxor b in (x land 1) + (x lsr 1)

let rails_of_code =
  [| { Ledr.v = false; t = false }; { v = true; t = false }; { v = false; t = true };
     { v = true; t = true } |]

let code_of_rails (r : Ledr.rails) = Bool.to_int r.Ledr.v lor (Bool.to_int r.Ledr.t lsl 1)

type role = Self_loop | Data | Feedback

(* The PL marked graph and the role of each arc in [stalled_marking],
   built on the first stall. *)
type forensics = {
  mg : Marked_graph.t;
  arc_src : int array;
  arc_dst : int array;
  arc_tok : int array;
  role : role array;
}

(* Per-wave working storage.  Entries are valid only while their stamp
   equals the current wave or round stamp, so nothing is cleared between
   waves and nothing in it outlives one [apply]. *)
type work = {
  mutable wave_stamp : int;
  mutable round_stamp : int;
  ready_wave : int array; (* wave stamp when [ready_at] was set *)
  ready_at : int array; (* round in which the gate first became ready *)
  early_wave : int array; (* wave stamp when the master fired early *)
  early_value : int array;
  queued : int array; (* stamp of the round that queued the gate for the next one *)
  mutable cur : int array; (* candidates of the round being evaluated *)
  mutable next : int array; (* candidates of the following round *)
  fire : int array; (* firings of the round: gate lsl 2 lor early lsl 1 lor value *)
}

(* The compiled netlist, immutable apart from [work] and shared by
   copies. *)
type net = {
  flat : Flat.t;
  ostart : int array; (* distinct Lut/Master/Trigger consumers, trigger->master included *)
  fanout : int array;
  holders : int array; (* sources, constants and registers, ascending *)
  comb : int array; (* Lut, Master and Trigger gates, ascending *)
  inputless : int array; (* Lut, Master and Trigger gates without fanins *)
  masters : int array; (* ascending *)
  settles : int array; (* registers and sinks, ascending *)
  sink_fanin : int array; (* in sink order *)
  delays : int array; (* extra firing rounds per gate once enabled *)
  max_rounds : int;
  forensics : forensics Lazy.t;
  work : work;
}

type t = {
  net : net;
  hooks : hooks;
  (* Which hooks differ from [no_hooks]; the others are not called. *)
  latch_hook : bool;
  drop_hook : bool;
  extra_hook : bool;
  trigger_hook : bool;
  rails : int array; (* output rail pair per gate *)
  gate_phase : int array;
  reg_state : bool array;
  mutable wave_phase : int; (* phase carried by the NEXT wave's tokens *)
  mutable wave_no : int; (* waves applied so far; the hooks' wave index *)
}

let violation fmt = Printf.ksprintf (fun s -> raise (Protocol_violation s)) fmt

let build_forensics (f : Flat.t) =
  let mg = Flat.marked_graph f in
  let arcs = Marked_graph.arcs mg in
  let arc_src = Array.map (fun (s, _, _) -> s) arcs in
  let arc_dst = Array.map (fun (_, d, _) -> d) arcs in
  let arc_tok = Array.map (fun (_, _, k) -> k) arcs in
  let dep_of d s =
    let found = ref false in
    for j = f.pstart.(d) to f.pstart.(d + 1) - 1 do
      if f.producer.(j) = s then found := true
    done;
    !found
  in
  let role =
    Array.map
      (fun (s, d, _) -> if s = d then Self_loop else if dep_of d s then Data else Feedback)
      arcs
  in
  { mg; arc_src; arc_dst; arc_tok; role }

let compile ~delays pl =
  let flat = Flat.of_pl ~caller:"Rail_sim.create" pl in
  let { Flat.code; fstart; _ } = flat in
  let n = Array.length code in
  let is_comb i = match code.(i) with Lut | Master | Trigger -> true | _ -> false in
  (* Each combinational consumer once per distinct producer, ascending. *)
  let { Flat.cstart; cslot; owner } = Flat.consumers flat in
  let fanout = Flat.select is_comb (Array.map (fun j -> owner.(j)) cslot) in
  let ostart = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    let comb = ref 0 in
    for k = cstart.(p) to cstart.(p + 1) - 1 do
      if is_comb owner.(cslot.(k)) then incr comb
    done;
    ostart.(p + 1) <- ostart.(p) + !comb
  done;
  let all = Array.init n Fun.id in
  let ids keep = Flat.select keep all in
  let work =
    {
      wave_stamp = 0;
      round_stamp = 0;
      ready_wave = Array.make n 0;
      ready_at = Array.make n 0;
      early_wave = Array.make n 0;
      early_value = Array.make n 0;
      queued = Array.make n 0;
      cur = Array.make n 0;
      next = Array.make n 0;
      fire = Array.make n 0;
    }
  in
  {
    flat;
    ostart;
    fanout;
    holders = ids (fun i -> match code.(i) with Source | Const | Register -> true | _ -> false);
    comb = ids is_comb;
    inputless = ids (fun i -> is_comb i && fstart.(i + 1) = fstart.(i));
    masters = ids (fun i -> code.(i) = Master);
    settles = ids (fun i -> match code.(i) with Register | Sink -> true | _ -> false);
    sink_fanin = Array.map (fun s -> flat.arg.(s)) (Pl.sink_ids pl);
    delays;
    max_rounds = Array.fold_left ( + ) (n + 2) delays;
    forensics = lazy (build_forensics flat);
    work;
  }

let with_hooks net hooks ~rails ~gate_phase ~reg_state ~wave_phase ~wave_no =
  {
    net;
    hooks;
    latch_hook = hooks.on_latch != no_hooks.on_latch;
    drop_hook = hooks.drop_fire != no_hooks.drop_fire;
    extra_hook = hooks.extra_fire != no_hooks.extra_fire;
    trigger_hook = hooks.trigger_seen != no_hooks.trigger_seen;
    rails;
    gate_phase;
    reg_state;
    wave_phase;
    wave_no;
  }

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
  let net = compile ~delays pl in
  let f = net.flat in
  let reg_state = Array.init n (fun i -> f.code.(i) = Register && f.arg.(i) = 1) in
  with_hooks net hooks ~rails:(Array.make n 0) ~gate_phase:(Array.make n 0) ~reg_state
    ~wave_phase:1 ~wave_no:0

let reset t =
  let f = t.net.flat in
  for i = 0 to Array.length t.rails - 1 do
    t.reg_state.(i) <- f.code.(i) = Register && f.arg.(i) = 1;
    t.rails.(i) <- 0;
    t.gate_phase.(i) <- 0
  done;
  t.wave_phase <- 1;
  t.wave_no <- 0

let copy t ~hooks =
  with_hooks t.net hooks ~rails:(Array.copy t.rails) ~gate_phase:(Array.copy t.gate_phase)
    ~reg_state:(Array.copy t.reg_state) ~wave_phase:t.wave_phase ~wave_no:t.wave_no

let same_state a b =
  a.wave_no = b.wave_no && a.wave_phase = b.wave_phase && a.rails = b.rails
  && a.gate_phase = b.gate_phase && a.reg_state = b.reg_state

(* Latch a new value into a gate's output pair.  The rails actually driven
   pass through the [on_latch] hook: an unfaulted latch is self-checked for
   the LEDR single-rail-transition property, while a faulted one follows
   the physics of the wire pair — a double-rail change is an observable
   protocol breach, a suppressed transition silently starves the consumers
   (diagnosed later as a stall), and the "other" single-rail transition is
   a perfectly legal token carrying the wrong value.  Returns 0 when the
   rails were driven, otherwise the breach for [breach], leaving the rails
   as they were. *)
let try_latch t i value ~dup =
  let current = t.rails.(i) in
  let fresh = next_code current value in
  let driven =
    if t.latch_hook then
      code_of_rails (t.hooks.on_latch ~wave:t.wave_no ~gate:i rails_of_code.(fresh))
    else fresh
  in
  let breach =
    if driven = fresh then
      if dup then 1
      else if hamming current fresh <> 1 then 2 lor (hamming current fresh lsl 3)
      else if phase_bit fresh <> t.wave_phase then 3
      else 0
    else if hamming current driven = 2 then 4
    else 0
  in
  if breach = 0 then t.rails.(i) <- driven;
  breach

let breach i = function
  | 1 -> violation "gate %d: fired twice in one wave" i
  | 3 -> violation "gate %d: latched wrong phase" i
  | 4 -> violation "gate %d: fault changed both rails at once" i
  | b -> violation "gate %d: transition changed %d rails" i (b lsr 3)

let latch t i value =
  let b = try_latch t i value ~dup:false in
  if b <> 0 then breach i b

(* The LUT value of a gate over whatever its fanin rails hold right now. *)
let eval_gate t i =
  let f = t.net.flat in
  let first = f.fstart.(i) in
  let m = ref 0 in
  for j = first to f.fstart.(i + 1) - 1 do
    if t.rails.(f.fanin.(j)) land 1 = 1 then m := !m lor (1 lsl (j - first))
  done;
  Bool.to_int (Lut4.eval_bits f.func.(i) !m)

(* The Muller-C rule for one combinational gate: -1 when it is not enabled,
   otherwise [early lsl 1 lor value].  A master is also enabled when its
   trigger and support inputs carry the new phase and the trigger (as the
   master sees it) reads 1; the LUT then sees whatever the rails hold, so
   its late inputs still carry the previous wave's values and the trigger
   guarantees insensitivity to them. *)
let probe t i =
  let f = t.net.flat and rails = t.rails and wave = t.wave_phase in
  let first = f.fstart.(i) in
  let m = ref 0 and stale = ref 0 in
  for j = first to f.fstart.(i + 1) - 1 do
    let c = rails.(f.fanin.(j)) in
    m := !m lor ((c land 1) lsl (j - first));
    if phase_bit c <> wave then stale := !stale lor (1 lsl (j - first))
  done;
  let early =
    !stale <> 0
    && f.code.(i) = Master
    && !stale land f.support.(i) = 0
    &&
    let c = rails.(f.arg.(i)) in
    phase_bit c = wave
    &&
    if t.trigger_hook then t.hooks.trigger_seen ~wave:t.wave_no ~master:i (c land 1 = 1)
    else c land 1 = 1
  in
  if !stale = 0 || early then
    Bool.to_int (Lut4.eval_bits f.func.(i) !m) lor if early then 2 else 0
  else -1

(* Map the mid-wave rail/phase state onto the PL marked graph: a data arc
   s->d carries a token when s has produced a fresh token d has not yet
   consumed; the complementary feedback arc d->s carries one when d has
   fired (ack returned) or s has not yet fired.  A gate that fired but
   whose output pair is phase-stale (a stuck rail ate the transition)
   leaves BOTH arcs of its circuit empty — the token-free cycle that
   explains the deadlock. *)
let stalled_marking t f =
  let net = t.net and wave = t.wave_phase in
  (* Per gate: bit 0 set when it fired, bit 1 when its output pair carries
     the new phase. *)
  let st =
    Array.init (Array.length t.rails) (fun i ->
        let fired =
          match net.flat.code.(i) with
          | Lut | Master | Trigger | Sink -> t.gate_phase.(i) = wave
          | Source | Const | Register -> true
        in
        Bool.to_int fired lor if phase_bit t.rails.(i) = wave then 2 else 0)
  in
  let counts = Array.make (Array.length f.role) 0 in
  for a = 0 to Array.length counts - 1 do
    let s = st.(f.arc_src.(a)) and d_fired = st.(f.arc_dst.(a)) land 1 = 1 in
    counts.(a) <-
      (match f.role.(a) with
      | Self_loop -> f.arc_tok.(a) (* register self-loop keeps its state token *)
      | Data -> if s = 3 && not d_fired then 1 else 0
      | Feedback -> if s land 1 = 1 || not d_fired then 1 else 0)
  done;
  Marked_graph.marking_of_array f.mg counts

let diagnose_stall t ~unfired =
  let net = t.net and wave = t.wave_phase in
  let n = Array.length t.rails in
  let stale i = phase_bit t.rails.(i) <> wave in
  let deps i =
    let f = net.flat in
    let first = f.fstart.(i) in
    let fanins = List.init (f.fstart.(i + 1) - first) (fun k -> f.fanin.(first + k)) in
    if f.code.(i) = Master then f.arg.(i) :: fanins else fanins
  in
  let waiting_on = List.map (fun i -> (i, List.filter stale (deps i))) unfired in
  let is_unfired = Array.make n false in
  List.iter (fun i -> is_unfired.(i) <- true) unfired;
  (* A root stalls without any stale input of its own: the gate a fault
     stopped from firing, rather than a downstream victim. *)
  let roots =
    List.filter_map
      (fun (i, stale_deps) ->
        if List.for_all (fun d -> not is_unfired.(d)) stale_deps then Some i else None)
      waiting_on
  in
  let stale_sources = ref [] in
  for i = n - 1 downto 0 do
    let fired_stale =
      match net.flat.code.(i) with
      | Lut | Master | Trigger -> t.gate_phase.(i) = wave && stale i
      | Source | Const | Register -> stale i
      | Sink -> false
    in
    if fired_stale then stale_sources := i :: !stale_sources
  done;
  let f = Lazy.force net.forensics in
  let blamed_cycle =
    match Marked_graph.token_free_cycle f.mg (stalled_marking t f) with
    | Some c -> c
    | None -> []
  in
  {
    stall_wave = t.wave_no;
    unfired;
    waiting_on;
    roots;
    stale_sources = !stale_sources;
    blamed_cycle;
  }

(* Queue the combinational consumers of gate [i] for the next round. *)
let queue_fanout t i ~nnext =
  let net = t.net and s = t.net.work in
  let stamp = s.round_stamp in
  let k = ref nnext in
  for j = net.ostart.(i) to net.ostart.(i + 1) - 1 do
    let c = net.fanout.(j) in
    if s.queued.(c) <> stamp then begin
      s.queued.(c) <- stamp;
      s.next.(!k) <- c;
      incr k
    end
  done;
  !k

let apply t vector =
  let net = t.net and s = t.net.work in
  if Array.length vector <> Array.length (Pl.source_ids net.flat.pl) then
    invalid_arg "Rail_sim.apply: wrong vector length";
  let wave = t.wave_phase and wave_no = t.wave_no in
  let rails = t.rails and gate_phase = t.gate_phase and code = net.flat.code in
  (* Environment and token-holding gates emit the new wave's tokens. *)
  for k = 0 to Array.length net.holders - 1 do
    let i = net.holders.(k) in
    let v =
      match code.(i) with
      | Source -> Bool.to_int vector.(net.flat.arg.(i))
      | Register -> Bool.to_int t.reg_state.(i)
      | _ -> net.flat.arg.(i)
    in
    latch t i v;
    gate_phase.(i) <- wave
  done;
  (* Fire combinational gates with the Muller-C rule until quiescent.  The
     firing is a fixpoint over unit-delay rounds: each round decides which
     gates fire from a snapshot of the rails, then fires them together.  A
     gate with a per-gate round delay becomes eligible when its inputs are
     fresh and fires that many rounds later — so an adversarial schedule
     can stretch a late-input path arbitrarily relative to a trigger.  A
     master whose trigger and subset inputs are fresh fires in an earlier
     round than its late-input chain would allow — the rail-level picture
     of early evaluation.

     A gate can become enabled only when one of its inputs changes, so
     round 0 evaluates the consumers of the gates whose rails already
     carry the new phase (and the gates without inputs), and a later round
     the consumers of the gates latched in the round before plus the gates
     still counting down a delay. *)
  s.wave_stamp <- s.wave_stamp + 1;
  s.round_stamp <- s.round_stamp + 1;
  let ws = s.wave_stamp in
  let early = ref 0 and ncands = ref 0 in
  for k = 0 to Array.length net.inputless - 1 do
    let i = net.inputless.(k) in
    s.queued.(i) <- s.round_stamp;
    s.next.(!ncands) <- i;
    incr ncands
  done;
  for i = 0 to Array.length rails - 1 do
    if phase_bit rails.(i) = wave then ncands := queue_fanout t i ~nnext:!ncands
  done;
  let round = ref 0 and progress = ref true in
  while !progress && !round <= net.max_rounds do
    let cur = s.next in
    s.next <- s.cur;
    s.cur <- cur;
    (* A fresh stamp per round, taken before anything is queued, so that a
       round cut short by an exception leaves no valid entry behind. *)
    s.round_stamp <- s.round_stamp + 1;
    let stamp = s.round_stamp and nfire = ref 0 and nnext = ref 0 and waiting = ref false in
    for k = 0 to !ncands - 1 do
      let i = cur.(k) in
      if gate_phase.(i) <> wave && not (t.drop_hook && t.hooks.drop_fire ~wave:wave_no ~gate:i)
      then begin
        let r = probe t i in
        if r >= 0 then begin
          if s.ready_wave.(i) <> ws then begin
            s.ready_wave.(i) <- ws;
            s.ready_at.(i) <- !round
          end;
          if !round - s.ready_at.(i) >= net.delays.(i) then begin
            s.fire.(!nfire) <- (i lsl 2) lor r;
            incr nfire
          end
          else begin
            waiting := true;
            if s.queued.(i) <> stamp then begin
              s.queued.(i) <- stamp;
              s.next.(!nnext) <- i;
              incr nnext
            end
          end
        end
      end
    done;
    (* The gates of a round fire in descending gate order.  A latch reads
       and writes only its own gate's rails, so the order is observable
       only through which breach is raised — the one of the highest gate,
       raised once the round is done — and through a duplicated firing,
       which re-reads its fanins: with duplication hooks the round is
       sorted. *)
    if t.extra_hook then begin
      let round_fires = Array.sub s.fire 0 !nfire in
      Array.sort (fun (a : int) b -> compare b a) round_fires;
      Array.blit round_fires 0 s.fire 0 !nfire
    end;
    let worst = ref (-1) and worst_breach = ref 0 in
    for k = 0 to !nfire - 1 do
      let e = s.fire.(k) in
      let i = e lsr 2 in
      let b = try_latch t i (e land 1) ~dup:false in
      let b =
        if b = 0 && t.extra_hook && t.hooks.extra_fire ~wave:wave_no ~gate:i then
          (* Token duplication: a second transition in the same wave. *)
          try_latch t i (eval_gate t i) ~dup:true
        else b
      in
      if b <> 0 then begin
        if i > !worst then begin
          worst := i;
          worst_breach := b
        end
      end
      else begin
        gate_phase.(i) <- wave;
        if e land 2 <> 0 then begin
          incr early;
          s.early_wave.(i) <- ws;
          s.early_value.(i) <- e land 1
        end;
        nnext := queue_fanout t i ~nnext:!nnext
      end
    done;
    if !worst >= 0 then breach !worst !worst_breach;
    (* Nothing fired, but some enabled gate still counts down its delay:
       advance the round clock. *)
    progress := !nfire > 0 || !waiting;
    ncands := !nnext;
    incr round
  done;
  (* Every combinational gate must have fired exactly once; a quiescent
     state with unfired gates is a deadlock, diagnosed in marked-graph
     terms. *)
  let unfired = ref [] in
  for k = Array.length net.comb - 1 downto 0 do
    let i = net.comb.(k) in
    if gate_phase.(i) <> wave then unfired := i :: !unfired
  done;
  if !unfired <> [] then raise (Stalled (diagnose_stall t ~unfired:!unfired));
  (* Late inputs have all arrived now: re-evaluate the early-fired masters
     and confirm the latched value was correct (the paper's don't-care
     argument made executable). *)
  for k = 0 to Array.length net.masters - 1 do
    let i = net.masters.(k) in
    if s.early_wave.(i) = ws && eval_gate t i <> s.early_value.(i) then
      violation "gate %d: early value contradicted by late inputs" i
  done;
  (* Registers capture their D inputs; sinks observe. *)
  for k = 0 to Array.length net.settles - 1 do
    let i = net.settles.(k) in
    if code.(i) = Register then begin
      let d = rails.(net.flat.fanin.(net.flat.fstart.(i))) in
      if phase_bit d <> wave then violation "register %d: stale D input" i;
      t.reg_state.(i) <- d land 1 = 1
    end
    else gate_phase.(i) <- wave
  done;
  let outputs = Array.make (Array.length net.sink_fanin) false in
  for k = 0 to Array.length outputs - 1 do
    outputs.(k) <- rails.(net.sink_fanin.(k)) land 1 = 1
  done;
  t.wave_phase <- 1 - wave;
  t.wave_no <- wave_no + 1;
  (outputs, !early)

let run_check pl nl ~vectors ~seed =
  let t = create pl in
  Ee_netlist.Netlist.agrees_random nl ~vectors ~seed (fun v -> fst (apply t v))
