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

let of_pl ?(gate_delay = Ee_phased.Timing.default.gate_delay)
    ?(ee_overhead = Ee_phased.Timing.default.ee_overhead) ?delays ?mode pl =
  let n = Array.length (Pl.gates pl) in
  (match delays with
  | Some d when Array.length d <> n ->
      invalid_arg "Timed_graph.of_pl: delays length mismatch"
  | _ -> ());
  let f = Flat.of_pl ~caller:"Timed_graph.of_pl" pl in
  let { Flat.code; support; pstart; producer; pmask; _ } = f in
  let mode =
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
     whose delay absorbs the C-element overhead.  Per gate: [full], the
     latency seen by its completion event; for a split master, [early],
     the weight of an early input (trigger or subset) into its output
     event, and [late], that of a late input under Expected, where [p] is
     the probability that the trigger fires. *)
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
      match mode with
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
  let split i = output_event.(i) <> complete_event.(i) in
  let events = !next in
  let event_gate = Array.make events 0 in
  let event_early = Array.make events false in
  for i = 0 to n - 1 do
    event_gate.(complete_event.(i)) <- i;
    event_gate.(output_event.(i)) <- i;
    event_early.(output_event.(i)) <- split i
  done;
  (* A (producer, consumer) pair gives one data arc, two into a split
     consumer unless it is a late input under Eager, and one acknowledge
     unless it is a self-loop, two into a split producer.  A producer
     feeds the early C-element when it is the trigger or sits at a subset
     position. *)
  let early_input i j = pmask.(j) land (support.(i) lor Flat.trigger_bit) <> 0 in
  let data_arcs i j =
    if not (split i) then 1 else if early_input i j then 2 else match mode with Eager -> 1 | _ -> 2
  in
  let acks i src = if src = i then 0 else if split src then 2 else 1 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = pstart.(i) to pstart.(i + 1) - 1 do
      count := !count + data_arcs i j + acks i producer.(j)
    done
  done;
  let arc_src = Array.make !count 0 and arc_dst = Array.make !count 0 in
  let arc_weight = Array.make !count 0. and arc_tokens = Array.make !count 0 in
  let count = ref 0 in
  let add src dst weight tokens =
    let k = !count in
    arc_src.(k) <- src;
    arc_dst.(k) <- dst;
    arc_weight.(k) <- weight;
    arc_tokens.(k) <- tokens;
    count := k + 1
  in
  for i = 0 to n - 1 do
    for j = pstart.(i) to pstart.(i + 1) - 1 do
      let src = producer.(j) and data_tokens = Flat.token f j in
      (* Data direction: producer's output event -> consumer firing. *)
      let src_ev = output_event.(src) in
      (* Completion waits for every input with the full latency. *)
      add src_ev complete_event.(i) full.(i) data_tokens;
      (* The early C-element waits for the subset inputs and the trigger
         token; under Eager the late inputs impose nothing, under
         Expected they impose their full constraint scaled by the
         probability the trigger stays silent. *)
      if split i then begin
        if early_input i j then
          add src_ev output_event.(i) early.(i) data_tokens
        else begin
          match mode with
          | Eager -> ()
          | Expected _ -> add src_ev output_event.(i) late.(i) data_tokens
          | Guarded -> assert false
        end
      end;
      (* Feedback direction: this gate acknowledges the producer once per
         wave (no feedback on a register's self-loop).  The acknowledge
         leaves at the completion event and constrains the producer's
         next firing — both of its events, when split. *)
      if src <> i then begin
        let fb_tokens = 1 - data_tokens in
        let ack_ev = complete_event.(i) in
        add ack_ev complete_event.(src) full.(src) fb_tokens;
        if split src then add ack_ev output_event.(src) early.(src) fb_tokens
      end
    done
  done;
  {
    graph = { nodes = events; arc_src; arc_dst; arc_weight; arc_tokens };
    event_gate;
    event_early;
    output_event;
    complete_event;
  }
