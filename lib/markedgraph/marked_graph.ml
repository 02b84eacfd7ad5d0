type t = {
  nodes : int;
  srcs : int array;
  dsts : int array;
  toks : int array;
  (* CSR arc tables: node [v]'s out-arcs are [out_arc.(out_start.(v)) ..
     out_arc.(out_start.(v + 1) - 1)], in descending arc index; likewise
     its in-arcs. *)
  out_start : int array;
  out_arc : int array;
  in_start : int array;
  in_arc : int array;
}

(* Arcs grouped by the node [ends.(a)], each group in descending arc index. *)
let csr nodes ends =
  let start = Array.make (nodes + 1) 0 in
  Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1) ends;
  for v = 0 to nodes - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 nodes and arc = Array.make (Array.length ends) 0 in
  for a = Array.length ends - 1 downto 0 do
    let v = ends.(a) in
    arc.(fill.(v)) <- a;
    fill.(v) <- fill.(v) + 1
  done;
  (start, arc)

let make ~nodes ~arcs =
  let arcs = Array.of_list arcs in
  Array.iter
    (fun (s, d, k) ->
      if s < 0 || s >= nodes || d < 0 || d >= nodes then
        invalid_arg "Marked_graph.make: arc endpoint out of range";
      if k < 0 then invalid_arg "Marked_graph.make: negative token count")
    arcs;
  let srcs = Array.map (fun (s, _, _) -> s) arcs and dsts = Array.map (fun (_, d, _) -> d) arcs in
  let out_start, out_arc = csr nodes srcs and in_start, in_arc = csr nodes dsts in
  let toks = Array.map (fun (_, _, k) -> k) arcs in
  { nodes; srcs; dsts; toks; out_start; out_arc; in_start; in_arc }

let node_count t = t.nodes

let arc_count t = Array.length t.srcs

let arcs t = Array.init (arc_count t) (fun i -> (t.srcs.(i), t.dsts.(i), t.toks.(i)))

type scratch = {
  mutable stamp : int;
  visited : int array; (* stamp: reached by the search *)
  finished : int array; (* stamp: all its out-arcs explored *)
  parent_arc : int array;
  stack : int array; (* depth-first path, as nodes *)
  cursor : int array; (* per path entry, the next out-arc slot to try *)
}

let scratch t =
  let n = t.nodes in
  {
    stamp = 0;
    visited = Array.make n 0;
    finished = Array.make n 0;
    parent_arc = Array.make n 0;
    stack = Array.make n 0;
    cursor = Array.make n 0;
  }

(* The path from [w] to [u] along parent arcs, ending [acc]. *)
let rec path_back t s w u acc =
  if u = w then acc
  else
    let p = t.srcs.(s.parent_arc.(u)) in
    path_back t s w p (p :: acc)

(* Depth-first search over the [free] arcs: roots ascending, each node's
   out-arcs in descending arc index, and the first arc that closes a cycle
   on the current path wins.  Allocates nothing but the cycle. *)
let free_cycle t s ~free =
  s.stamp <- s.stamp + 1;
  let st = s.stamp in
  let cycle = ref [] and searching = ref true and root = ref 0 in
  while !searching && !root < t.nodes do
    let r = !root in
    if s.visited.(r) <> st then begin
      s.visited.(r) <- st;
      s.stack.(0) <- r;
      s.cursor.(0) <- t.out_start.(r);
      let sp = ref 1 in
      while !searching && !sp > 0 do
        let v = s.stack.(!sp - 1) and c = s.cursor.(!sp - 1) in
        if c = t.out_start.(v + 1) then begin
          s.finished.(v) <- st;
          decr sp
        end
        else begin
          s.cursor.(!sp - 1) <- c + 1;
          let a = t.out_arc.(c) in
          if free a then begin
            let w = t.dsts.(a) in
            if s.visited.(w) <> st then begin
              s.visited.(w) <- st;
              s.parent_arc.(w) <- a;
              s.stack.(!sp) <- w;
              s.cursor.(!sp) <- t.out_start.(w);
              incr sp
            end
            else if s.finished.(w) <> st then begin
              cycle := path_back t s w v [ v ];
              searching := false
            end
          end
        end
      done
    end;
    incr root
  done;
  !cycle

let tokens_on_cycles_ok t = free_cycle t (scratch t) ~free:(fun a -> t.toks.(a) = 0) = []

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
    for c = t.out_start.(v) to t.out_start.(v + 1) - 1 do
      let w = t.dsts.(t.out_arc.(c)) in
      if index.(w) = -1 then begin
        strong w;
        low.(v) <- min low.(v) low.(w)
      end
      else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
    done;
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

(* The first arc that lies on no cycle of at most one token, scanning
   destinations ascending and, per destination [d], its in-arcs from the
   highest index down.  Arc [(s, d, k)] is safe when [k] plus the fewest
   tokens on a path [d ->* s] is at most one.  Most arcs need no search: a
   self-loop is its own cycle, and a partner arc [(d, s, k')] with
   [k + k' <= 1] closes a one-token 2-cycle (the C-element rendezvous of a
   data arc and its acknowledge).  For the rest, one search per
   destination, run when first needed, marks every node within one token
   of [d]: the closure over token-free arcs, then one-token arcs out of it
   and their token-free closure. *)
let unsafe_arc t =
  let n = t.nodes in
  let partner = Array.make n (-1) (* = d: some arc d -> v, fewest tokens [partner_toks] *)
  and partner_toks = Array.make n 0 in
  let reached = Array.make n (-1) (* = d: within one token of d, fewest [level] *)
  and level = Array.make n 0
  and queue = Array.make n 0 in
  let search d =
    let tail = ref 0 in
    let push v l =
      reached.(v) <- d;
      level.(v) <- l;
      queue.(!tail) <- v;
      incr tail
    in
    (* Push the unreached heads of queue entry [i]'s [k]-token arcs. *)
    let expand i k l =
      let v = queue.(i) in
      for c = t.out_start.(v) to t.out_start.(v + 1) - 1 do
        let a = t.out_arc.(c) in
        if t.toks.(a) = k && reached.(t.dsts.(a)) <> d then push t.dsts.(a) l
      done
    in
    push d 0;
    let i = ref 0 in
    while !i < !tail do
      expand !i 0 0;
      incr i
    done;
    for j = 0 to !i - 1 do
      expand j 1 1
    done;
    while !i < !tail do
      expand !i 0 1;
      incr i
    done
  in
  let rec scan d =
    if d = n then None
    else begin
      for c = t.out_start.(d) to t.out_start.(d + 1) - 1 do
        let a = t.out_arc.(c) in
        let w = t.dsts.(a) in
        if partner.(w) <> d || t.toks.(a) < partner_toks.(w) then begin
          partner.(w) <- d;
          partner_toks.(w) <- t.toks.(a)
        end
      done;
      let safe a =
        let s = t.srcs.(a) and k = t.toks.(a) in
        if s = d then k <= 1
        else if partner.(s) = d && k + partner_toks.(s) <= 1 then true
        else begin
          if reached.(d) <> d then search d;
          reached.(s) = d && k + level.(s) <= 1
        end
      in
      let rec first c =
        if c = t.in_start.(d + 1) then scan (d + 1)
        else if safe t.in_arc.(c) then first (c + 1)
        else Some t.in_arc.(c)
      in
      first t.in_start.(d)
    end
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

let rec marked t m c stop = c = stop || (m.(t.in_arc.(c)) > 0 && marked t m (c + 1) stop)

let enabled t m v = marked t m t.in_start.(v) t.in_start.(v + 1)

let fire t m v =
  if not (enabled t m v) then invalid_arg "Marked_graph.fire: node not enabled";
  for c = t.in_start.(v) to t.in_start.(v + 1) - 1 do
    m.(t.in_arc.(c)) <- m.(t.in_arc.(c)) - 1
  done;
  for c = t.out_start.(v) to t.out_start.(v + 1) - 1 do
    m.(t.out_arc.(c)) <- m.(t.out_arc.(c)) + 1
  done

let enabled_nodes t m =
  let out = ref [] in
  for v = t.nodes - 1 downto 0 do
    if enabled t m v then out := v :: !out
  done;
  !out

(* A directed cycle all of whose arcs are token-free under [m]: the
   structural cause of a deadlock (the nodes on it wait on each other
   forever). *)
let token_free_cycle t m =
  match free_cycle t (scratch t) ~free:(fun a -> m.(a) = 0) with [] -> None | c -> Some c

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
