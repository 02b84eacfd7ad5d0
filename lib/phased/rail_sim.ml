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

(* The PL marked graph as the stall diagnosis reads it, built on the first
   stall: the graph, its arcs [(src, dst, initial tokens)] and their roles,
   and the cycle search's scratch. *)
type forensics = {
  graph : Marked_graph.t;
  search : Marked_graph.scratch;
  arcs : (int * int * int) array;
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
  latched : int array; (* per gate latched this wave: (round + 1) lsl 1 lor early *)
  mutable stall_stamp : int;
  unfired_at : int array; (* stall stamp: the gate is unfired in the stall being diagnosed *)
}

(* A list of gate ids, ascending, that one step of a wave walks. *)
type span = { ids : int array; mutable len : int }

(* The gates a wave works on, by the step that walks them: every gate of the
   netlist for a full wave, the members of the divergent set for a
   differential one. *)
type active = {
  holders : span; (* sources, constants and registers *)
  inputless : span; (* Lut, Master and Trigger gates without fanins *)
  scan : span; (* gates whose new-phase rails seed round 0 *)
  comb : span; (* Lut, Master and Trigger gates *)
  masters : span;
  settles : span; (* registers and sinks *)
}

(* The compiled netlist, immutable apart from [work] and shared by
   copies. *)
type net = {
  flat : Flat.t;
  ostart : int array; (* distinct Lut/Master/Trigger consumers, trigger->master included *)
  fanout : int array;
  cstart : int array; (* every distinct consumer, registers and sinks included *)
  consumer : int array;
  full : active;
  sink_fanin : int array; (* in sink order *)
  delays : int array; (* extra firing rounds per gate once enabled *)
  max_rounds : int;
  forensics : forensics Lazy.t;
  work : work;
}

(* Gate state at a wave boundary. *)
type state = { s_rails : int array; s_phase : int array; s_reg : bool array }

(* A recorded fault-free unit-delay run, and the state and scratch of the
   differential waves forked from it.  The forks of a trace run one at a
   time in its state triple ([rails], [phase], [reg]): there a gate's entry
   is its own only while it is a member of the current fork's last wave
   ([member] holds [dstamp]); every other gate is in the trace's state at
   the same wave boundary. *)
type trace = {
  tnet : net;
  base : int; (* wave number of [states.(0)] *)
  mutable states : state array; (* [states.(k)]: at the start of wave [base + k] *)
  mutable latched : int array array; (* [latched.(k)]: [work.latched] after wave [base + k] *)
  mutable early : int array; (* [early.(k)]: early firings in wave [base + k] *)
  mutable recorded : int; (* completed waves *)
  part : active; (* the divergent set of the current differential wave *)
  member : int array; (* [dstamp]: in the divergent set; [dstamp + 1]: a feeder *)
  mutable dstamp : int;
  dset : int array; (* [part.scan]'s ids: discovery order while built, then ascending *)
  feeders : int array; (* [(round + 1) * n + gate], ascending *)
  mutable nfeed : int;
  mutable fed : int; (* feeders replayed so far *)
  dirty : int array; (* members whose state differs from the trace's after the last wave *)
  mutable ndirty : int;
  rails : int array; (* the current fork's state *)
  phase : int array;
  reg : bool array;
  mutable forks : int; (* forks made so far; the last one is current *)
}

(* What a differential simulator needs besides its state: its trace, the
   gate its hooks act on and their last wave, and which fork of the trace
   it is. *)
type fork = { trace : trace; site : int; last : int; id : int }

type t = {
  net : net;
  hooks : hooks;
  (* Which hooks differ from [no_hooks]; the others are not called. *)
  latch_hook : bool;
  drop_hook : bool;
  extra_hook : bool;
  trigger_hook : bool;
  mutable rails : int array; (* output rail pair per gate; a fork's are its trace's *)
  mutable gate_phase : int array;
  mutable reg_state : bool array;
  mutable wave_phase : int; (* phase carried by the NEXT wave's tokens *)
  mutable wave_no : int; (* waves applied so far; the hooks' wave index *)
  mutable tape : trace option; (* recording this simulator's waves *)
  mutable fork : fork option; (* replaying the gates outside the divergent set *)
}

let violation fmt = Printf.ksprintf (fun s -> raise (Protocol_violation s)) fmt

let build_forensics (f : Flat.t) =
  let graph = Flat.marked_graph f in
  let arcs = Marked_graph.arcs graph in
  let dep_of d s =
    let found = ref false in
    for j = f.pstart.(d) to f.pstart.(d + 1) - 1 do
      if f.producer.(j) = s then found := true
    done;
    !found
  in
  {
    graph;
    search = Marked_graph.scratch graph;
    arcs;
    role =
      Array.map
        (fun (s, d, _) -> if s = d then Self_loop else if dep_of d s then Data else Feedback)
        arcs;
  }

let span ids = { ids; len = Array.length ids }
let empty_span n = { ids = Array.make n 0; len = 0 }

let compile ~delays pl =
  let flat = Flat.of_pl ~caller:"Rail_sim.create" pl in
  let { Flat.code; fstart; _ } = flat in
  let n = Array.length code in
  let is_comb i = match code.(i) with Lut | Master | Trigger -> true | _ -> false in
  (* Each consumer once per distinct producer, ascending. *)
  let { Flat.cstart; cslot; owner } = Flat.consumers flat in
  let consumer = Array.map (fun j -> owner.(j)) cslot in
  let fanout = Flat.select is_comb consumer in
  let ostart = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    let comb = ref 0 in
    for k = cstart.(p) to cstart.(p + 1) - 1 do
      if is_comb consumer.(k) then incr comb
    done;
    ostart.(p + 1) <- ostart.(p) + !comb
  done;
  let all = Array.init n Fun.id in
  let ids keep = span (Flat.select keep all) in
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
      latched = Array.make n 0;
      stall_stamp = 0;
      unfired_at = Array.make n 0;
    }
  in
  {
    flat;
    ostart;
    fanout;
    cstart;
    consumer;
    full =
      {
        holders = ids (fun i -> match code.(i) with Source | Const | Register -> true | _ -> false);
        inputless = ids (fun i -> is_comb i && fstart.(i + 1) = fstart.(i));
        scan = span all;
        comb = ids is_comb;
        masters = ids (fun i -> code.(i) = Master);
        settles = ids (fun i -> match code.(i) with Register | Sink -> true | _ -> false);
      };
    sink_fanin = Array.map (fun s -> flat.arg.(s)) (Pl.sink_ids pl);
    delays;
    max_rounds = Array.fold_left ( + ) (n + 2) delays;
    forensics = lazy (build_forensics flat);
    work;
  }

let with_hooks net hooks ~rails ~gate_phase ~reg_state ~wave_phase ~wave_no ~fork =
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
    tape = None;
    fork;
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
    ~wave_phase:1 ~wave_no:0 ~fork:None

let reset t =
  let f = t.net.flat in
  (* A fork's arrays are its trace's: a reset one takes arrays of its own. *)
  if t.fork <> None then begin
    let n = Array.length t.rails in
    t.rails <- Array.make n 0;
    t.gate_phase <- Array.make n 0;
    t.reg_state <- Array.make n false
  end;
  for i = 0 to Array.length t.rails - 1 do
    t.reg_state.(i) <- f.code.(i) = Register && f.arg.(i) = 1;
    t.rails.(i) <- 0;
    t.gate_phase.(i) <- 0
  done;
  t.wave_phase <- 1;
  t.wave_no <- 0;
  t.tape <- None;
  t.fork <- None

let current fn d = if d.id <> d.trace.forks then invalid_arg (fn ^ ": superseded fork")

(* A fork holds the state of its last wave's members; every other gate is
   in the trace's state at the wave boundary in question, [held]. *)
let[@inline] own t g =
  match t.fork with None -> true | Some d -> d.trace.member.(g) = d.trace.dstamp

let no_state = { s_rails = [||]; s_phase = [||]; s_reg = [||] }

(* The trace state at the start of wave [wave]; [held t ~wave:(t.wave_no + 1)]
   during a wave, [held t ~wave:t.wave_no] between waves. *)
let held t ~wave =
  match t.fork with None -> no_state | Some d -> d.trace.states.(wave - d.trace.base)

let[@inline] rails_in t held g = if own t g then t.rails.(g) else held.s_rails.(g)
let[@inline] phase_in t held g = if own t g then t.gate_phase.(g) else held.s_phase.(g)

(* The whole-netlist state between waves: a simulator's own arrays, or for
   a fork fresh ones, its members' state merged into the trace's. *)
let view fn t =
  match t.fork with
  | None -> (t.rails, t.gate_phase, t.reg_state)
  | Some d ->
      current fn d;
      let s = held t ~wave:t.wave_no in
      let pick mine theirs = Array.mapi (fun g x -> if own t g then x else theirs.(g)) mine in
      (pick t.rails s.s_rails, pick t.gate_phase s.s_phase, pick t.reg_state s.s_reg)

let copy t ~hooks =
  let rails, gate_phase, reg_state = view "Rail_sim.copy" t in
  with_hooks t.net hooks ~rails:(Array.copy rails) ~gate_phase:(Array.copy gate_phase)
    ~reg_state:(Array.copy reg_state) ~wave_phase:t.wave_phase ~wave_no:t.wave_no ~fork:None

let same_state a b =
  let va = view "Rail_sim.same_state" a and vb = view "Rail_sim.same_state" b in
  a.wave_no = b.wave_no && a.wave_phase = b.wave_phase && va = vb

let rails t =
  let r, _, _ = view "Rail_sim.rails" t in
  Array.map (fun c -> rails_of_code.(c)) r

let phases t =
  let _, p, _ = view "Rail_sim.phases" t in
  Array.map (fun p -> if p = 1 then Ledr.Odd else Ledr.Even) p

let snapshot t =
  {
    s_rails = Array.copy t.rails;
    s_phase = Array.copy t.gate_phase;
    s_reg = Array.copy t.reg_state;
  }

let trace t =
  if t.latch_hook || t.drop_hook || t.extra_hook || t.trigger_hook then
    invalid_arg "Rail_sim.trace: simulator has hooks";
  if Array.exists (fun d -> d <> 0) t.net.delays then
    invalid_arg "Rail_sim.trace: simulator has round delays";
  if t.fork <> None then invalid_arg "Rail_sim.trace: forked simulator";
  let n = Array.length t.rails in
  let dset = Array.make n 0 in
  let tr =
    {
      tnet = t.net;
      base = t.wave_no;
      states = [| snapshot t |];
      latched = [||];
      early = [||];
      recorded = 0;
      part =
        {
          holders = empty_span n;
          inputless = empty_span n;
          scan = { ids = dset; len = 0 };
          comb = empty_span n;
          masters = empty_span n;
          settles = empty_span n;
        };
      member = Array.make n 0;
      dstamp = 0;
      dset;
      feeders = Array.make n 0;
      nfeed = 0;
      fed = 0;
      dirty = Array.make n 0;
      ndirty = 0;
      rails = Array.make n 0;
      phase = Array.make n 0;
      reg = Array.make n false;
      forks = 0;
    }
  in
  t.tape <- Some tr;
  tr

let grow a k x = if k < Array.length a then a else Array.append a (Array.make (max 1 k) x)

(* A completed wave of a traced simulator: its latches, early firings and
   end state. *)
let record tr t ~early =
  let k = tr.recorded in
  tr.latched <- grow tr.latched k [||];
  tr.latched.(k) <- Array.copy t.net.work.latched;
  tr.early <- grow tr.early k 0;
  tr.early.(k) <- early;
  tr.states <- grow tr.states (k + 1) tr.states.(0);
  tr.states.(k + 1) <- snapshot t;
  tr.recorded <- k + 1

let fork tr ~wave ~site ~last ~hooks =
  let k = wave - tr.base in
  if k < 0 || k >= tr.recorded then invalid_arg "Rail_sim.fork: wave outside the trace";
  if site < 0 || site >= Array.length tr.member then invalid_arg "Rail_sim.fork: site out of range";
  (* No gate is a member yet, so every gate reads as the trace's. *)
  tr.forks <- tr.forks + 1;
  tr.dstamp <- tr.dstamp + 2;
  tr.ndirty <- 0;
  with_hooks tr.tnet hooks ~rails:tr.rails ~gate_phase:tr.phase ~reg_state:tr.reg
    ~wave_phase:(1 - (wave land 1)) ~wave_no:wave
    ~fork:(Some { trace = tr; site; last; id = tr.forks })

let diverged t =
  match t.fork with
  | Some d ->
      current "Rail_sim.diverged" d;
      d.trace.ndirty > 0
  | None -> invalid_arg "Rail_sim.diverged: not a forked simulator"

let traced_rails tr ~wave gate =
  let k = wave - tr.base in
  if k < 0 || k >= tr.recorded then invalid_arg "Rail_sim.traced_rails: wave outside the trace";
  rails_of_code.(tr.states.(k + 1).s_rails.(gate))

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

(* The token-free cycle that explains a stall, read off the mid-wave
   rail/phase state through each arc's role: a data arc s->d carries a
   token when s has produced a fresh token d has not yet consumed; the
   complementary feedback arc d->s carries one when d has fired (ack
   returned) or s has not yet fired; a register self-loop keeps its state
   token.  A gate that fired but whose output pair is phase-stale (a stuck
   rail ate the transition) leaves BOTH arcs of its circuit empty.
   Sources, constants and registers have emitted; a stalled wave never
   reaches the step where sinks observe, so no sink has fired.

   The search is [Marked_graph.free_cycle] on the forensics' scratch.  A
   fork's gates outside its divergent set are read in the trace's
   end-of-wave state [held]. *)
let blamed_cycle t f ~held =
  let code = t.net.flat.code and wave = t.wave_phase in
  let fired i =
    match code.(i) with
    | Lut | Master | Trigger -> phase_in t held i = wave
    | Sink -> false
    | Source | Const | Register -> true
  in
  let token_free a =
    let s, d, k = f.arcs.(a) in
    match f.role.(a) with
    | Self_loop -> k = 0
    | Data -> not (fired s && phase_bit (rails_in t held s) = wave && not (fired d))
    | Feedback -> (not (fired s)) && fired d
  in
  Marked_graph.free_cycle f.graph f.search ~free:token_free

(* The stall of the wave in progress.  A fork's gates outside its divergent
   set hold the trace's end-of-wave state, where nothing is stale or
   unfired, so the scans cover the wave's gates [scan] alone. *)
let diagnose_stall t ~unfired ~scan =
  let net = t.net and wave = t.wave_phase and s = t.net.work in
  let held = held t ~wave:(t.wave_no + 1) in
  let stale i = phase_bit (rails_in t held i) <> wave in
  let deps i =
    let f = net.flat in
    let first = f.fstart.(i) in
    let fanins = List.init (f.fstart.(i + 1) - first) (fun k -> f.fanin.(first + k)) in
    if f.code.(i) = Master then f.arg.(i) :: fanins else fanins
  in
  let waiting_on = List.map (fun i -> (i, List.filter stale (deps i))) unfired in
  s.stall_stamp <- s.stall_stamp + 1;
  let st = s.stall_stamp in
  List.iter (fun i -> s.unfired_at.(i) <- st) unfired;
  (* A root stalls without any stale input of its own: the gate a fault
     stopped from firing, rather than a downstream victim. *)
  let roots =
    List.filter_map
      (fun (i, stale_deps) ->
        if List.for_all (fun d -> s.unfired_at.(d) <> st) stale_deps then Some i else None)
      waiting_on
  in
  let stale_sources = ref [] in
  for k = scan.len - 1 downto 0 do
    let i = scan.ids.(k) in
    let fired_stale =
      match net.flat.code.(i) with
      | Lut | Master | Trigger -> t.gate_phase.(i) = wave && stale i
      | Source | Const | Register -> stale i
      | Sink -> false
    in
    if fired_stale then stale_sources := i :: !stale_sources
  done;
  {
    stall_wave = t.wave_no;
    unfired;
    waiting_on;
    roots;
    stale_sources = !stale_sources;
    blamed_cycle = blamed_cycle t (Lazy.force net.forensics) ~held;
  }

(* Queue the combinational consumers of gate [i] for the next round; with
   [member >= 0], only those whose [trace.member] entry is [member]. *)
let queue_fanout t i ~nnext ~member =
  let net = t.net and s = t.net.work in
  let stamp = s.round_stamp in
  let k = ref nnext in
  for j = net.ostart.(i) to net.ostart.(i + 1) - 1 do
    let c = net.fanout.(j) in
    if
      s.queued.(c) <> stamp
      && (member < 0
         || match t.fork with Some d -> d.trace.member.(c) = member | None -> true)
    then begin
      s.queued.(c) <- stamp;
      s.next.(!k) <- c;
      incr k
    end
  done;
  !k

(* Sort [a.(0 .. len - 1)] ascending in place, without allocating
   (heapsort). *)
let rec sift (a : int array) i last =
  let l = (2 * i) + 1 in
  if l <= last then begin
    let c = if l < last && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c last
    end
  end

let sort_prefix a len =
  for i = (len / 2) - 1 downto 0 do
    sift a i (len - 1)
  done;
  for last = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 (last - 1)
  done

let enlist tr g =
  if tr.member.(g) <> tr.dstamp then begin
    tr.member.(g) <- tr.dstamp;
    tr.dset.(tr.part.scan.len) <- g;
    tr.part.scan.len <- tr.part.scan.len + 1
  end

let push sp g =
  sp.ids.(sp.len) <- g;
  sp.len <- sp.len + 1

(* The divergent set of the coming wave of a forked simulator: the gates
   whose state differs from the trace's, plus the fault site while its
   hooks can act, closed under consumers.  Sources, constants and
   registers pass the closure on only when they are seeds themselves: one
   that a member merely feeds emits the trace's token this wave.  Fills
   [trace.part] and [trace.feeders]: the non-members producing for a
   combinational member, in the order of the rounds in which the trace
   latched them.

   Only the dirty gates, members of the last wave, hold their own state:
   every other member, and every feeder's rails, are loaded from the
   trace's state at the wave's start. *)
let divergent_set t d =
  let tr = d.trace and f = t.net.flat in
  let code = f.code and n = Array.length t.rails and p = tr.part in
  let now = tr.states.(t.wave_no - tr.base) in
  tr.dstamp <- tr.dstamp + 2;
  p.scan.len <- 0;
  for k = 0 to tr.ndirty - 1 do
    enlist tr tr.dirty.(k)
  done;
  if t.wave_no <= d.last then enlist tr d.site;
  let seeds = p.scan.len and k = ref 0 in
  while !k < p.scan.len do
    let g = tr.dset.(!k) in
    let expands = match code.(g) with Lut | Master | Trigger -> true | _ -> !k < seeds in
    if expands then
      for j = t.net.cstart.(g) to t.net.cstart.(g + 1) - 1 do
        enlist tr t.net.consumer.(j)
      done;
    if !k >= tr.ndirty then begin
      t.rails.(g) <- now.s_rails.(g);
      t.gate_phase.(g) <- now.s_phase.(g);
      t.reg_state.(g) <- now.s_reg.(g)
    end;
    incr k
  done;
  sort_prefix tr.dset p.scan.len;
  p.holders.len <- 0;
  p.inputless.len <- 0;
  p.comb.len <- 0;
  p.masters.len <- 0;
  p.settles.len <- 0;
  tr.nfeed <- 0;
  tr.fed <- 0;
  let ds = tr.dstamp and latched = tr.latched.(t.wave_no - tr.base) in
  for k = 0 to p.scan.len - 1 do
    let g = tr.dset.(k) in
    match code.(g) with
    | Source | Const -> push p.holders g
    | Register ->
        push p.holders g;
        push p.settles g
    | Sink -> push p.settles g
    | Lut | Master | Trigger ->
        push p.comb g;
        if code.(g) = Master then push p.masters g;
        if f.fstart.(g + 1) = f.fstart.(g) then push p.inputless g;
        for j = f.pstart.(g) to f.pstart.(g + 1) - 1 do
          let q = f.producer.(j) in
          if tr.member.(q) <> ds && tr.member.(q) <> ds + 1 then begin
            tr.member.(q) <- ds + 1;
            t.rails.(q) <- now.s_rails.(q);
            tr.feeders.(tr.nfeed) <- ((latched.(q) lsr 1) * n) + q;
            tr.nfeed <- tr.nfeed + 1
          end
        done
  done;
  sort_prefix tr.feeders tr.nfeed

(* Replay the latches the trace made up to [round] for the feeders of a
   differential wave, queueing their members for the next round. *)
let replay t d ~round ~nnext =
  let tr = d.trace in
  let n = Array.length t.rails and next = tr.states.(t.wave_no - tr.base + 1) in
  let k = ref nnext in
  while tr.fed < tr.nfeed && (tr.feeders.(tr.fed) / n) - 1 <= round do
    let q = tr.feeders.(tr.fed) mod n in
    t.rails.(q) <- next.s_rails.(q);
    k := queue_fanout t q ~nnext:!k ~member:tr.dstamp;
    tr.fed <- tr.fed + 1
  done;
  !k

let apply t vector =
  let net = t.net and s = t.net.work in
  if Array.length vector <> Array.length (Pl.source_ids net.flat.pl) then
    invalid_arg "Rail_sim.apply: wrong vector length";
  let wave = t.wave_phase and wave_no = t.wave_no in
  let rails = t.rails and gate_phase = t.gate_phase and code = net.flat.code in
  (* A full wave works on every gate.  A differential one works on its
     divergent set and replays, from the trace, the latches of the gates
     feeding it, each in the round the trace latched it in. *)
  let act =
    match t.fork with
    | None -> net.full
    | Some d ->
        current "Rail_sim.apply" d;
        if wave_no - d.trace.base >= d.trace.recorded then
          invalid_arg "Rail_sim.apply: forked simulator past its trace";
        divergent_set t d;
        d.trace.part
  in
  let member = match t.fork with None -> -1 | Some d -> d.trace.dstamp in
  (* Environment and token-holding gates emit the new wave's tokens. *)
  let holders = act.holders in
  for k = 0 to holders.len - 1 do
    let i = holders.ids.(k) in
    let v =
      match code.(i) with
      | Source -> Bool.to_int vector.(net.flat.arg.(i))
      | Register -> Bool.to_int t.reg_state.(i)
      | _ -> net.flat.arg.(i)
    in
    latch t i v;
    gate_phase.(i) <- wave;
    s.latched.(i) <- 0
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
  let inputless = act.inputless in
  for k = 0 to inputless.len - 1 do
    let i = inputless.ids.(k) in
    s.queued.(i) <- s.round_stamp;
    s.next.(!ncands) <- i;
    incr ncands
  done;
  (match t.fork with Some d -> ncands := replay t d ~round:(-1) ~nnext:!ncands | None -> ());
  let scan = act.scan in
  for k = 0 to scan.len - 1 do
    let i = scan.ids.(k) in
    if phase_bit rails.(i) = wave then ncands := queue_fanout t i ~nnext:!ncands ~member
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
        s.latched.(i) <- ((!round + 1) lsl 1) lor ((e lsr 1) land 1);
        if e land 2 <> 0 then begin
          incr early;
          s.early_wave.(i) <- ws;
          s.early_value.(i) <- e land 1
        end;
        nnext := queue_fanout t i ~nnext:!nnext ~member:(-1)
      end
    done;
    if !worst >= 0 then breach !worst !worst_breach;
    let pending =
      match t.fork with
      | None -> false
      | Some d ->
          nnext := replay t d ~round:!round ~nnext:!nnext;
          d.trace.fed < d.trace.nfeed
    in
    (* Nothing fired, but some enabled gate still counts down its delay, or
       a feeder latched or has yet to: advance the round clock. *)
    progress := !nfire > 0 || !waiting || !nnext > 0 || pending;
    ncands := !nnext;
    incr round
  done;
  (* Every combinational gate must have fired exactly once; a quiescent
     state with unfired gates is a deadlock, diagnosed in marked-graph
     terms. *)
  let unfired = ref [] and comb = act.comb in
  for k = comb.len - 1 downto 0 do
    let i = comb.ids.(k) in
    if gate_phase.(i) <> wave then unfired := i :: !unfired
  done;
  if !unfired <> [] then raise (Stalled (diagnose_stall t ~unfired:!unfired ~scan));
  (* Late inputs have all arrived now: re-evaluate the early-fired masters
     and confirm the latched value was correct (the paper's don't-care
     argument made executable). *)
  let masters = act.masters in
  for k = 0 to masters.len - 1 do
    let i = masters.ids.(k) in
    if s.early_wave.(i) = ws && eval_gate t i <> s.early_value.(i) then
      violation "gate %d: early value contradicted by late inputs" i
  done;
  (* Registers capture their D inputs; sinks observe.  A fork reads a
     producer outside its divergent set in the trace's end-of-wave state. *)
  let held = held t ~wave:(wave_no + 1) in
  let settles = act.settles in
  for k = 0 to settles.len - 1 do
    let i = settles.ids.(k) in
    if code.(i) = Register then begin
      let d = rails_in t held net.flat.fanin.(net.flat.fstart.(i)) in
      if phase_bit d <> wave then violation "register %d: stale D input" i;
      t.reg_state.(i) <- d land 1 = 1
    end
    else gate_phase.(i) <- wave
  done;
  let outputs = Array.make (Array.length net.sink_fanin) false in
  for k = 0 to Array.length outputs - 1 do
    outputs.(k) <- rails_in t held net.sink_fanin.(k) land 1 = 1
  done;
  (* A differential wave counts the trace's early firings outside its
     divergent set, and notes which members now differ from the trace. *)
  let early =
    match t.fork with
    | Some d ->
        let tr = d.trace in
        let latched = tr.latched.(wave_no - tr.base) in
        let e = ref (tr.early.(wave_no - tr.base) + !early) in
        for k = 0 to masters.len - 1 do
          e := !e - (latched.(masters.ids.(k)) land 1)
        done;
        tr.ndirty <- 0;
        for k = 0 to scan.len - 1 do
          let g = scan.ids.(k) in
          if
            rails.(g) <> held.s_rails.(g)
            || gate_phase.(g) <> held.s_phase.(g)
            || t.reg_state.(g) <> held.s_reg.(g)
          then begin
            tr.dirty.(tr.ndirty) <- g;
            tr.ndirty <- tr.ndirty + 1
          end
        done;
        !e
    | None -> !early
  in
  t.wave_phase <- 1 - wave;
  t.wave_no <- wave_no + 1;
  (match t.tape with Some tr -> record tr t ~early | None -> ());
  (outputs, early)

let run_check pl nl ~vectors ~seed =
  let t = create pl in
  Ee_netlist.Netlist.agrees_random nl ~vectors ~seed (fun v -> fst (apply t v))
