type t = {
  nodes : int;
  srcs : int array;
  dsts : int array;
  toks : int array;
  out_arcs : int list array; (* arcs leaving each node *)
  in_arcs : int list array;
}

let make ~nodes ~arcs =
  let n = List.length arcs in
  let srcs = Array.make n 0 and dsts = Array.make n 0 and toks = Array.make n 0 in
  let out_arcs = Array.make nodes [] and in_arcs = Array.make nodes [] in
  List.iteri
    (fun i (s, d, k) ->
      if s < 0 || s >= nodes || d < 0 || d >= nodes then
        invalid_arg "Marked_graph.make: arc endpoint out of range";
      if k < 0 then invalid_arg "Marked_graph.make: negative token count";
      srcs.(i) <- s;
      dsts.(i) <- d;
      toks.(i) <- k;
      out_arcs.(s) <- i :: out_arcs.(s);
      in_arcs.(d) <- i :: in_arcs.(d))
    arcs;
  { nodes; srcs; dsts; toks; out_arcs; in_arcs }

let node_count t = t.nodes

let arc_count t = Array.length t.srcs

let arcs t = Array.init (arc_count t) (fun i -> (t.srcs.(i), t.dsts.(i), t.toks.(i)))

(* Acyclicity of the sub-graph formed by arcs satisfying [keep], via
   recursive DFS (depth bounded by node count). *)
let subgraph_acyclic t keep =
  let state = Array.make t.nodes 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let cyclic = ref false in
  let rec visit v =
    if state.(v) = 0 then begin
      state.(v) <- 1;
      List.iter
        (fun a ->
          if keep a then
            let w = t.dsts.(a) in
            if state.(w) = 1 then cyclic := true else if state.(w) = 0 then visit w)
        t.out_arcs.(v);
      state.(v) <- 2
    end
  in
  for v = 0 to t.nodes - 1 do
    if not !cyclic then visit v
  done;
  not !cyclic

let tokens_on_cycles_ok t = subgraph_acyclic t (fun a -> t.toks.(a) = 0)

(* Tarjan strongly-connected components. *)
let scc_ids t =
  let index = Array.make t.nodes (-1) in
  let low = Array.make t.nodes 0 in
  let on_stack = Array.make t.nodes false in
  let comp = Array.make t.nodes (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun a ->
        let w = t.dsts.(a) in
        if index.(w) = -1 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      t.out_arcs.(v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            if w <> v then pop ()
        | [] -> assert false
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to t.nodes - 1 do
    if index.(v) = -1 then strong v
  done;
  comp

let all_arcs_on_cycles t =
  (* An arc lies on a directed cycle iff its endpoints share an SCC (self
     loops included: same node, same component). *)
  let comp = scc_ids t in
  let ok = ref true in
  for a = 0 to arc_count t - 1 do
    if comp.(t.srcs.(a)) <> comp.(t.dsts.(a)) then ok := false
  done;
  !ok

let is_live t = tokens_on_cycles_ok t && all_arcs_on_cycles t

(* Dijkstra from [src]: minimum token weight to every node. *)
module Pq = Set.Make (struct
  type t = int * int (* dist, node *)

  let compare = compare
end)

let dijkstra t src =
  let dist = Array.make t.nodes max_int in
  dist.(src) <- 0;
  let pq = ref (Pq.singleton (0, src)) in
  while not (Pq.is_empty !pq) do
    let ((d, v) as el) = Pq.min_elt !pq in
    pq := Pq.remove el !pq;
    if d = dist.(v) then
      List.iter
        (fun a ->
          let w = t.dsts.(a) in
          let nd = d + t.toks.(a) in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            pq := Pq.add (nd, w) !pq
          end)
        t.out_arcs.(v)
  done;
  dist

let min_cycle_tokens t a =
  let dist = dijkstra t t.dsts.(a) in
  if dist.(t.srcs.(a)) = max_int then None else Some (t.toks.(a) + dist.(t.srcs.(a)))

(* The first arc, scanning destinations in ascending order with one
   Dijkstra per destination, that lies on no cycle of exactly one token. *)
let unsafe_arc t =
  let by_dst = Array.make t.nodes [] in
  for a = 0 to arc_count t - 1 do
    by_dst.(t.dsts.(a)) <- a :: by_dst.(t.dsts.(a))
  done;
  let rec scan v =
    if v = t.nodes then None
    else if by_dst.(v) = [] then scan (v + 1)
    else
      let dist = dijkstra t v in
      let unsafe a =
        let back = dist.(t.srcs.(a)) in
        back = max_int || t.toks.(a) + back > 1
      in
      match List.find_opt unsafe by_dst.(v) with Some a -> Some a | None -> scan (v + 1)
  in
  scan 0

let is_safe t = unsafe_arc t = None

let check_live_safe t =
  if not (tokens_on_cycles_ok t) then Error "liveness: a directed cycle carries no token"
  else if not (all_arcs_on_cycles t) then
    Error "liveness: an arc lies on no directed cycle"
  else
    match unsafe_arc t with
    | None -> Ok ()
    | Some a ->
        Error
          (Printf.sprintf "safety: arc %d (%d -> %d, %d tokens) can exceed one token" a
             t.srcs.(a) t.dsts.(a) t.toks.(a))

type marking = int array

let initial_marking t = Array.copy t.toks

let tokens m a = m.(a)

let marking_array m = Array.copy m

let marking_of_array t a =
  if Array.length a <> arc_count t then
    invalid_arg
      (Printf.sprintf "Marked_graph.marking_of_array: %d counts for %d arcs" (Array.length a)
         (arc_count t));
  for i = 0 to Array.length a - 1 do
    if a.(i) < 0 then
      invalid_arg (Printf.sprintf "Marked_graph.marking_of_array: arc %d negative" i)
  done;
  Array.copy a

let adjust_tokens m ~arc ~delta =
  if arc < 0 || arc >= Array.length m then
    invalid_arg (Printf.sprintf "Marked_graph.adjust_tokens: arc %d out of range" arc);
  let next = m.(arc) + delta in
  if next < 0 then
    invalid_arg
      (Printf.sprintf "Marked_graph.adjust_tokens: arc %d would hold %d tokens" arc next);
  m.(arc) <- next

let enabled t m v = List.for_all (fun a -> m.(a) > 0) t.in_arcs.(v)

let fire t m v =
  if not (enabled t m v) then invalid_arg "Marked_graph.fire: node not enabled";
  List.iter (fun a -> m.(a) <- m.(a) - 1) t.in_arcs.(v);
  List.iter (fun a -> m.(a) <- m.(a) + 1) t.out_arcs.(v)

let enabled_nodes t m =
  let out = ref [] in
  for v = t.nodes - 1 downto 0 do
    if enabled t m v then out := v :: !out
  done;
  !out

(* A directed cycle all of whose arcs are token-free under [m]: the
   structural cause of a deadlock (the nodes on it wait on each other
   forever).  DFS over the token-free sub-graph, reconstructing the cycle
   from the recursion stack. *)
let token_free_cycle t m =
  let state = Array.make t.nodes 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let parent_arc = Array.make t.nodes (-1) in
  let found = ref None in
  let rec visit v =
    state.(v) <- 1;
    List.iter
      (fun a ->
        if !found = None && m.(a) = 0 then begin
          let w = t.dsts.(a) in
          if state.(w) = 1 then begin
            (* Walk back from v to w along parent arcs. *)
            let rec back u acc = if u = w then acc else
              let pa = parent_arc.(u) in
              back t.srcs.(pa) (t.srcs.(pa) :: acc)
            in
            found := Some (back v [ v ])
          end
          else if state.(w) = 0 then begin
            parent_arc.(w) <- a;
            visit w
          end
        end)
      t.out_arcs.(v);
    state.(v) <- 2
  in
  for v = 0 to t.nodes - 1 do
    if !found = None && state.(v) = 0 then visit v
  done;
  !found

type deadlock = {
  dead_marking : int array;  (** Tokens per arc when the game stalled. *)
  dead_enabled : int list;  (** Nodes still enabled (empty for a true deadlock). *)
  dead_cycle : int list;  (** A token-free directed cycle to blame, [] if none. *)
}

let diagnose t m =
  {
    dead_marking = Array.copy m;
    dead_enabled = enabled_nodes t m;
    dead_cycle = (match token_free_cycle t m with Some c -> c | None -> []);
  }

let game t m ~check_initial ~steps ~rng =
  let counts = Array.make t.nodes 0 in
  let result = ref None in
  let flag_unsafe () =
    Array.iteri
      (fun a k -> if k > 1 && !result = None then result := Some (`Unsafe (a, (Array.copy m : marking))))
      m
  in
  if check_initial then flag_unsafe ();
  let step = ref 0 in
  while !result = None && !step < steps do
    (match enabled_nodes t m with
    | [] -> result := Some (`Dead (Array.copy m : marking))
    | en ->
        let v = List.nth en (Ee_util.Prng.int rng (List.length en)) in
        fire t m v;
        counts.(v) <- counts.(v) + 1;
        flag_unsafe ());
    incr step
  done;
  match !result with Some r -> r | None -> `Ok counts

let run_token_game t ~steps ~rng = game t (initial_marking t) ~check_initial:false ~steps ~rng

let run_token_game_from t m ~steps ~rng = game t m ~check_initial:true ~steps ~rng
