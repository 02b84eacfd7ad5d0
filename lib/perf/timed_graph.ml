module Pl = Ee_phased.Pl
module Flat = Ee_phased.Flat

type arc = { src : int; dst : int; weight : float; tokens : int }

type t = {
  nodes : int;
  arc_src : int array;
  arc_dst : int array;
  arc_weight : float array;
  arc_tokens : int array;
}

let make ~nodes ~arcs =
  let arcs = Array.of_list arcs in
  Array.iter
    (fun a ->
      if a.src < 0 || a.src >= nodes || a.dst < 0 || a.dst >= nodes then
        invalid_arg "Timed_graph.make: arc endpoint out of range";
      if a.tokens < 0 then invalid_arg "Timed_graph.make: negative tokens";
      if not (Float.is_finite a.weight) then
        invalid_arg "Timed_graph.make: non-finite weight")
    arcs;
  {
    nodes;
    arc_src = Array.map (fun a -> a.src) arcs;
    arc_dst = Array.map (fun a -> a.dst) arcs;
    arc_weight = Array.map (fun a -> a.weight) arcs;
    arc_tokens = Array.map (fun a -> a.tokens) arcs;
  }

let arc_count g = Array.length g.arc_src

type ee_mode = Guarded | Eager | Expected of (int -> float)

type mapping = {
  graph : t;
  event_gate : int array;
  event_early : bool array;
  output_event : int array;
  complete_event : int array;
}

let coverage_probability pl i =
  match Pl.ee pl i with
  | None -> 0.
  | Some e -> Float.min 1. (Float.max 0. (e.Pl.coverage /. 100.))

(* The firing rule as arc weights.  Per gate: its completion event and its
   output event (one event unless the gate is a split master), [full], the
   latency seen by its completion event, and, for a split master, [early],
   the weight of an early input (trigger or subset) into its output event,
   and [late], that of a late input under Expected.  [eager] drops the late
   inputs' constraint.  A trial overrides the arrays at its [master] and
   adds its [trigger], a gate past their end (both -1 otherwise); its
   weights sit in a record of floats alone, which OCaml stores unboxed, so
   reading them allocates nothing. *)
type trial_weights = {
  master_full : float;
  master_early : float;
  master_late : float;
  trigger_full : float;
}

type rule = {
  eager : bool;
  complete : int array;
  output : int array;
  full : float array;
  early : float array;
  late : float array;
  master : int;
  master_output : int;
  trigger : int;
  trigger_event : int;
  w : trial_weights;
}

let[@inline] complete r i = if i = r.trigger then r.trigger_event else r.complete.(i)

let[@inline] output r i =
  if i = r.master then r.master_output else if i = r.trigger then r.trigger_event else r.output.(i)

let[@inline] full r i =
  if i = r.master then r.w.master_full else if i = r.trigger then r.w.trigger_full else r.full.(i)

(* Only split gates have these; a trigger never splits. *)
let[@inline] early r i = if i = r.master then r.w.master_early else r.early.(i)
let[@inline] late r i = if i = r.master then r.w.master_late else r.late.(i)

(* Arcs being emitted: counted only while the arrays are empty, stored
   once they have room. *)
type sink = {
  mutable count : int;
  mutable src : int array;
  mutable dst : int array;
  mutable weight : float array;
  mutable tokens : int array;
}

let[@inline] add s src dst weight tokens =
  let k = s.count in
  if k < Array.length s.src then begin
    s.src.(k) <- src;
    s.dst.(k) <- dst;
    s.weight.(k) <- weight;
    s.tokens.(k) <- tokens
  end;
  s.count <- k + 1

(* The arcs of one (producer [src], consumer [i]) slot: one data arc, two
   into a split consumer unless it is a late input under Eager, and one
   acknowledge unless it is a self-loop, two into a split producer. *)
let emit r s i ~src ~early_input ~tokens =
  let src_ev = output r src and ci = complete r i and oi = output r i in
  (* Data direction: the completion waits for every input with the full
     latency.  The early C-element waits for the subset inputs and the
     trigger token; under Eager the late inputs impose nothing, under
     Expected they impose their full constraint scaled by the probability
     the trigger stays silent. *)
  add s src_ev ci (full r i) tokens;
  if oi <> ci then
    if early_input then add s src_ev oi (early r i) tokens
    else if not r.eager then add s src_ev oi (late r i) tokens;
  (* Feedback direction: this gate acknowledges the producer once per wave
     (no feedback on a register's self-loop).  The acknowledge leaves at
     the completion event and constrains the producer's next firing — both
     of its events, when split. *)
  if src <> i then begin
    let cs = complete r src and os = output r src in
    add s ci cs (full r src) (1 - tokens);
    if os <> cs then add s ci os (early r src) (1 - tokens)
  end

(* The arcs of consumer [i]'s slots in [f], a producer feeding the early
   C-element when it is the trigger or sits at a position of [support]. *)
let consumer_arcs (f : Flat.t) r ~support s i =
  for j = f.pstart.(i) to f.pstart.(i + 1) - 1 do
    emit r s i ~src:f.producer.(j)
      ~early_input:(f.pmask.(j) land (support lor Flat.trigger_bit) <> 0)
      ~tokens:(Flat.token f j)
  done

(* The arcs of [owners], consumer by consumer, and where each consumer's
   arcs start: a counting pass, then a filling pass. *)
let collect nodes owners arcs =
  let s = { count = 0; src = [||]; dst = [||]; weight = [||]; tokens = [||] } in
  let owned = Array.make (Array.length owners + 1) 0 in
  Array.iteri
    (fun k i ->
      owned.(k) <- s.count;
      arcs s i)
    owners;
  let m = s.count in
  owned.(Array.length owners) <- m;
  s.src <- Array.make m 0;
  s.dst <- Array.make m 0;
  s.weight <- Array.make m 0.;
  s.tokens <- Array.make m 0;
  s.count <- 0;
  Array.iter (arcs s) owners;
  ({ nodes; arc_src = s.src; arc_dst = s.dst; arc_weight = s.weight; arc_tokens = s.tokens }, owned)

type base = {
  mapping : mapping;
  flat : Flat.t;
  consumers : Flat.consumers Lazy.t;
  rule : rule;
  owned : int array;
  gate_delay : float;
  ee_overhead : float;
}

let build ~caller ~gate_delay ~ee_overhead ?delays ?mode pl =
  let n = Array.length (Pl.gates pl) in
  (match delays with
  | Some d when Array.length d <> n -> invalid_arg (caller ^ ": delays length mismatch")
  | _ -> ());
  let f = Flat.of_pl ~caller pl in
  let code = f.Flat.code in
  let mode' =
    match mode with Some m -> m | None -> Expected (coverage_probability pl)
  in
  let base i =
    match code.(i) with
    | Flat.Source | Flat.Const | Flat.Sink -> 0.
    | Flat.Lut | Flat.Master | Flat.Register | Flat.Trigger -> (
        match delays with Some d -> d.(i) | None -> gate_delay)
  in
  (* A master splits into an output event and a completion event whenever
     its trigger can actually fire; under Guarded it stays a single event
     whose delay absorbs the C-element overhead.  [p] is the probability
     that the trigger fires. *)
  let full = Array.make n 0. and early = Array.make n 0. and late = Array.make n 0. in
  let output_event = Array.make n 0 in
  let complete_event = Array.make n 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let master = code.(i) = Flat.Master in
    full.(i) <- (if master then base i +. ee_overhead else base i);
    complete_event.(i) <- !next;
    incr next;
    let p =
      match mode' with
      | _ when not master -> None
      | Guarded -> None
      | Expected p -> Some (Float.min 1. (Float.max 0. (p i)))
      | Eager -> Some 1.
    in
    match p with
    | Some p ->
        early.(i) <- ee_overhead +. ((1. -. p) *. base i);
        late.(i) <- (1. -. p) *. (base i +. ee_overhead);
        output_event.(i) <- !next;
        incr next
    | None -> output_event.(i) <- complete_event.(i)
  done;
  let events = !next in
  let event_gate = Array.make events 0 in
  let event_early = Array.make events false in
  for i = 0 to n - 1 do
    event_gate.(complete_event.(i)) <- i;
    event_gate.(output_event.(i)) <- i;
    event_early.(output_event.(i)) <- output_event.(i) <> complete_event.(i)
  done;
  let rule =
    {
      eager = (match mode' with Eager -> true | Guarded | Expected _ -> false);
      complete = complete_event;
      output = output_event;
      full;
      early;
      late;
      master = -1;
      master_output = 0;
      trigger = -1;
      trigger_event = 0;
      w = { master_full = 0.; master_early = 0.; master_late = 0.; trigger_full = 0. };
    }
  in
  let graph, owned =
    collect events (Array.init n Fun.id) (fun s i ->
        consumer_arcs f rule ~support:f.Flat.support.(i) s i)
  in
  {
    mapping = { graph; event_gate; event_early; output_event; complete_event };
    flat = f;
    consumers = lazy (Flat.consumers f);
    rule;
    owned;
    gate_delay;
    ee_overhead;
  }

let of_pl ?(gate_delay = Ee_phased.Timing.default.gate_delay)
    ?(ee_overhead = Ee_phased.Timing.default.ee_overhead) ?delays ?mode pl =
  (build ~caller:"Timed_graph.of_pl" ~gate_delay ~ee_overhead ?delays ?mode pl).mapping

let compile ?(gate_delay = Ee_phased.Timing.default.gate_delay)
    ?(ee_overhead = Ee_phased.Timing.default.ee_overhead) pl =
  build ~caller:"Timed_graph.compile" ~gate_delay ~ee_overhead pl

let mapping b = b.mapping

type delta = { nodes : int; output : int; trigger : int; drop : int array; add : t }

let trial b master (req : Pl.ee_info_request) =
  let f = b.flat in
  let n = Array.length f.Flat.code in
  if master < 0 || master >= n || f.Flat.code.(master) <> Flat.Lut then
    invalid_arg "Timed_graph.trial: master is not a combinational gate without a trigger";
  let fs = f.Flat.fstart.(master) in
  let support = req.Pl.req_support in
  if support < 0 || support lsr (f.Flat.fstart.(master + 1) - fs) <> 0 then
    invalid_arg "Timed_graph.trial: support position out of range";
  let nodes0 = b.mapping.graph.nodes in
  (* [Pl.with_ee] appends the trigger as gate [n]; its producers are the
     distinct signals at the support positions, ascending. *)
  let t = n in
  let signals =
    Array.of_list
      (List.sort_uniq compare
         (List.map (fun p -> f.Flat.fanin.(fs + p)) (Ee_util.Bits.indices support)))
  in
  (* Under the default mode the master splits, its trigger firing with
     probability [req_coverage / 100]; its base delay is its [full]
     latency before it had a trigger, and the trigger is a plain gate. *)
  let p = Float.min 1. (Float.max 0. (req.Pl.req_coverage /. 100.)) in
  let delay = b.rule.full.(master) and ee = b.ee_overhead in
  let r =
    {
      b.rule with
      master;
      master_output = nodes0;
      trigger = t;
      trigger_event = nodes0 + 1;
      w =
        {
          master_full = delay +. ee;
          master_early = ee +. ((1. -. p) *. delay);
          master_late = (1. -. p) *. (delay +. ee);
          trigger_full = b.gate_delay;
        };
    }
  in
  (* The arcs that change are those owned by the master, by its consumers
     (whose inputs now leave the master's output event and whose
     acknowledges meet its new latency) and by the trigger. *)
  let cs = Lazy.force b.consumers in
  let changed =
    List.sort compare
      (master
      :: List.init (cs.Flat.cstart.(master + 1) - cs.Flat.cstart.(master)) (fun k ->
             cs.Flat.owner.(cs.Flat.cslot.(cs.Flat.cstart.(master) + k))))
  in
  let arcs s i =
    if i = t then
      Array.iter
        (fun src -> emit r s t ~src ~early_input:false ~tokens:(Flat.token_from f src))
        signals
    else if i = master then begin
      consumer_arcs f r ~support s i;
      emit r s i ~src:t ~early_input:true ~tokens:0
    end
    else consumer_arcs f r ~support:f.Flat.support.(i) s i
  in
  let add, _ = collect (nodes0 + 2) (Array.of_list (changed @ [ t ])) arcs in
  let drop =
    Array.concat
      (List.map (fun i -> Array.init (b.owned.(i + 1) - b.owned.(i)) (( + ) b.owned.(i))) changed)
  in
  { nodes = nodes0 + 2; output = nodes0; trigger = nodes0 + 1; drop; add }

let splice (g : t) (d : delta) =
  if d.nodes < g.nodes || d.add.nodes <> d.nodes then
    invalid_arg "Timed_graph.splice: the delta does not extend the graph";
  let keep = Array.make (arc_count g) true in
  Array.iter (fun k -> keep.(k) <- false) d.drop;
  let kept = Array.fold_left (fun c b -> if b then c + 1 else c) 0 keep in
  let m = kept + arc_count d.add in
  let arc_src = Array.make m 0 and arc_dst = Array.make m 0 in
  let arc_weight = Array.make m 0. and arc_tokens = Array.make m 0 in
  let at = ref 0 in
  let put (h : t) k =
    arc_src.(!at) <- h.arc_src.(k);
    arc_dst.(!at) <- h.arc_dst.(k);
    arc_weight.(!at) <- h.arc_weight.(k);
    arc_tokens.(!at) <- h.arc_tokens.(k);
    incr at
  in
  Array.iteri (fun k b -> if b then put g k) keep;
  for k = 0 to arc_count d.add - 1 do
    put d.add k
  done;
  { nodes = d.nodes; arc_src; arc_dst; arc_weight; arc_tokens }
