exception Not_live of string

type result = {
  lambda : float;
  cycle : int list;
  cycle_arcs : int list;
  policy : int array;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* The largest weight magnitude of [w] and how many entries reach it. *)
let weight_top (w : float array) =
  Array.fold_left
    (fun (top, count) x ->
      let a = Float.abs x in
      if a > top then (a, 1) else if a = top then (top, count + 1) else (top, count))
    (0., 0) w

let weight_scale (g : Timed_graph.t) = Float.max 1. (fst (weight_top g.arc_weight))

(* [bits], raised until [w * 2^bits] is an integer (every finite float is
   a multiple of 2^-1074). *)
let[@inline] fraction_bits bits w =
  let b = ref bits in
  while
    let x = Float.ldexp w !b in
    x <> Float.trunc x
  do
    incr b
  done;
  !b

(* Whether [w], a multiple of 2^-[bits], needs all of them. *)
let[@inline] needs_bits bits w =
  bits = 0
  ||
  let x = Float.ldexp w (bits - 1) in
  x <> Float.trunc x

(* The fewest fraction bits that write every entry of [w] (the least [j]
   with each [x * 2^j] an integer), and how many entries need all of
   them. *)
let weight_bits (w : float array) =
  let bits = ref 0 and at_bits = ref 0 in
  Array.iter
    (fun x ->
      let b = fraction_bits !bits x in
      if b > !bits then begin
        bits := b;
        at_bits := 1
      end
      else if needs_bits b x then incr at_bits)
    w;
  (!bits, !at_bits)

(* Every policy cycle of a graph of [n] nodes sums exactly when its
   weights, at most [scale] in magnitude, are multiples of 2^-[bits] and
   [n] of them stay below 2^52 such units: then every partial sum is a
   representable multiple, so a cycle's ratio does not depend on the node
   its sum starts from, and no ratio rounds above the one of a heavier
   cycle.  Every graph under the default timing has [bits] at most 6 (its
   weights are sums and products of 1, 1/4 and coverages k/16). *)
let exact_sums ~n ~scale ~bits = Float.ldexp (float_of_int n *. scale) bits <= 0x1p52

(* Counting sort of the arcs by [key] (their tail or head): row offsets
   ([n + 1] entries) and, row by row, the arc indices in descending
   order. *)
let rows n (key : int array) =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun v -> off.(v) <- off.(v) + 1) key;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* [off.(v)] is now the end of row [v]; placing the arcs in ascending
     index at decreasing positions leaves it at the row's start. *)
  let ids = Array.make (Array.length key) 0 in
  Array.iteri
    (fun k v ->
      off.(v) <- off.(v) - 1;
      ids.(off.(v)) <- k)
    key;
  (off, ids)

(* Compressed sparse rows: node [v]'s out-arcs occupy positions [first.(v)]
   to [last.(v) - 1] of [dst], [weight], [tokens] and [id] (the arc's index
   in the graph), in descending arc index.  A compiled graph stores its
   rows back to back; a spliced trial keeps the rows it leaves alone and
   points the ones it changes into a scratch tail (with no [id]). *)
type csr = {
  first : int array;
  last : int array;
  dst : int array;
  weight : float array;
  tokens : int array;
  id : int array;
}

let csr_of (g : Timed_graph.t) =
  let n = g.nodes in
  let off, id = rows n g.arc_src in
  {
    first = Array.sub off 0 n;
    last = Array.sub off 1 n;
    id;
    dst = Array.map (Array.get g.arc_dst) id;
    weight = Array.map (Array.get g.arc_weight) id;
    tokens = Array.map (Array.get g.arc_tokens) id;
  }

(* Every directed cycle must carry a token for a steady state to exist:
   Kahn's algorithm on the token-free arcs among the first [len] nodes of
   [region] (every node when [None]), a set closed under token-free
   successors; leftovers lie on or behind a token-free cycle. *)
let check_token_free_cycles c ~len ~region ~indeg ~queue =
  let node r = match region with None -> r | Some a -> a.(r) in
  for r = 0 to len - 1 do
    indeg.(node r) <- 0
  done;
  for r = 0 to len - 1 do
    let u = node r in
    for k = c.first.(u) to c.last.(u) - 1 do
      if c.tokens.(k) = 0 then indeg.(c.dst.(k)) <- indeg.(c.dst.(k)) + 1
    done
  done;
  let tail = ref 0 in
  for r = 0 to len - 1 do
    let v = node r in
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = c.first.(u) to c.last.(u) - 1 do
      if c.tokens.(k) = 0 then begin
        let v = c.dst.(k) in
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  if !tail < len then
    raise
      (Not_live
         (Printf.sprintf
            "token-free cycle through %d node(s): no steady state exists"
            (len - !tail)))

let check_graph n c =
  check_token_free_cycles c ~len:n ~region:None ~indeg:(Array.make n 0)
    ~queue:(Array.make n 0)

(* ------------------------------------------------------------------ *)
(* Howard's policy iteration (multichain max-cycle-ratio variant)      *)
(* ------------------------------------------------------------------ *)

(* Per-node working arrays of one solve, at least as long as the graph. *)
type work = {
  alive : bool array;
  out_deg : int array;
  kill : int array;
  policy : int array;
  lam : float array;
  pot : float array;
  state : int array;
  path : int array;
}

let work n =
  {
    alive = Array.make n true;
    out_deg = Array.make n 0;
    kill = Array.make n 0;
    policy = Array.make n (-1);
    lam = Array.make n neg_infinity;
    pot = Array.make n 0.;
    state = Array.make n 0;
    path = Array.make n 0;
  }

(* Keep only nodes that can lie on a cycle: repeatedly discard nodes with
   no live outgoing arc (a node whose every path leaves the graph never
   constrains the steady state).  Returns the number discarded. *)
let prune n c w =
  let { alive; out_deg; kill; _ } = w in
  let tail = ref 0 in
  let doom v =
    kill.(!tail) <- v;
    incr tail
  in
  for v = 0 to n - 1 do
    alive.(v) <- true;
    out_deg.(v) <- c.last.(v) - c.first.(v);
    if out_deg.(v) = 0 then doom v
  done;
  (* In a netlist's event graph every consumer acknowledges its producers,
     so only isolated gates lack an out-arc; the predecessor rows are built
     only when some node needs discarding. *)
  if !tail > 0 then begin
    let in_off = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      for k = c.first.(u) to c.last.(u) - 1 do
        in_off.(c.dst.(k) + 1) <- in_off.(c.dst.(k) + 1) + 1
      done
    done;
    for v = 1 to n do
      in_off.(v) <- in_off.(v) + in_off.(v - 1)
    done;
    let pred = Array.make in_off.(n) 0 and fill = Array.sub in_off 0 n in
    for u = 0 to n - 1 do
      for k = c.first.(u) to c.last.(u) - 1 do
        let v = c.dst.(k) in
        pred.(fill.(v)) <- u;
        fill.(v) <- fill.(v) + 1
      done
    done;
    let head = ref 0 in
    while !head < !tail do
      let v = kill.(!head) in
      incr head;
      alive.(v) <- false;
      for k = in_off.(v) to in_off.(v + 1) - 1 do
        let u = pred.(k) in
        if alive.(u) then begin
          out_deg.(u) <- out_deg.(u) - 1;
          if out_deg.(u) = 0 then doom u
        end
      done
    done
  end;
  !tail

(* Ratio and potential improvements below [eps_unit] times the graph's
   largest weight magnitude are float noise to the solver. *)
let eps_unit = 1e-12

(* Converged policy iteration over the first [n] nodes of [c], with [w]'s
   arrays: [w.alive] and [w.policy] (each live node's policy arc, a CSR
   position) are left as converged; returns a node of maximal cycle ratio
   and that ratio, or [None] when no node lies on or leads to a cycle.
   [scale] is the graph's largest weight magnitude, at least 1.  With
   [cutoff], the iteration stops at the first policy cycle whose ratio
   exceeds [cutoff] by more than twice the tolerance; the node returned is
   that cycle's root and the ratio returned is the cycle's less the
   tolerance.  When the graph's cycles sum [exact]ly ({!exact_sums}), it
   stops at the first policy cycle whose ratio exceeds [cutoff] at all,
   and returns that ratio. *)
let howard ?hint ?(cutoff = infinity) ~exact ~scale n c w =
  if prune n c w = n then None
  else begin
    let { first; last; dst; weight; tokens; _ } = c in
    let { alive; policy; lam; pot; state; path; _ } = w in
    let eps = eps_unit *. scale in
    (* Every policy cycle is a cycle of the graph, so its ratio is a lower
       bound on the maximum.  The same cycle summed from another root may
       differ in the last bits, so the bound reported is the ratio less
       [eps], and a solve stops only [2 eps] above the cutoff: one whose
       maximum is at most the cutoff runs to convergence, and the bound
       returned by one that stops still exceeds the cutoff.  Exact sums
       need no margin: the ratio itself is a bound, and a cycle that ties
       an incumbent just above the cutoff stops the solve at once. *)
    let margin = if exact then 0. else eps in
    let stop_above = cutoff +. (2. *. margin) in
    let stopped = ref (-1) in
    (* Initial policy: the hinted successor when a live arc reaches it,
       otherwise the node's first live arc. *)
    for v = 0 to n - 1 do
      policy.(v) <- -1;
      lam.(v) <- neg_infinity;
      pot.(v) <- 0.;
      if alive.(v) then begin
        let want =
          match hint with Some h when v < Array.length h -> h.(v) | _ -> -1
        in
        let first_live = ref (-1) and hinted = ref (-1) in
        for k = last.(v) - 1 downto first.(v) do
          if alive.(dst.(k)) then begin
            first_live := k;
            if dst.(k) = want then hinted := k
          end
        done;
        policy.(v) <- (if !hinted >= 0 then !hinted else !first_live)
      end
    done;
    (* 0 = unvisited, 1 = on the current sigma-walk, 2 = evaluated *)
    let sigma v = dst.(policy.(v)) in
    let evaluate () =
      Array.fill state 0 n 0;
      let next = ref 0 in
      while !next < n && !stopped < 0 do
        let start = !next in
        incr next;
        if alive.(start) && state.(start) = 0 then begin
          let len = ref 0 in
          let cur = ref start in
          while state.(!cur) = 0 do
            state.(!cur) <- 1;
            path.(!len) <- !cur;
            incr len;
            cur := sigma !cur
          done;
          if state.(!cur) = 1 then begin
            (* New policy cycle rooted at !cur: its ratio, then potentials
               around it.  The root keeps its previous potential as the
               anchor — re-anchoring at 0 lets float noise between two
               equal-ratio policies alternate forever (phase 2 would see a
               phantom improvement each round); keeping the anchor makes
               the potential vector monotone, which forces termination. *)
            let root = !cur in
            let wsum = ref 0. and tsum = ref 0 in
            let v = ref root in
            let continue = ref true in
            while !continue do
              let k = policy.(!v) in
              wsum := !wsum +. weight.(k);
              tsum := !tsum + tokens.(k);
              v := dst.(k);
              if !v = root then continue := false
            done;
            if !tsum = 0 then
              raise (Not_live "policy cycle without tokens");
            lam.(root) <- !wsum /. float_of_int !tsum;
            if lam.(root) > stop_above then stopped := root;
            state.(root) <- 2
          end;
          (* Deepest first, so each node's successor is already evaluated
             when we reach it. *)
          for i = !len - 1 downto 0 do
            let u = path.(i) in
            if state.(u) <> 2 then begin
              let k = policy.(u) in
              lam.(u) <- lam.(dst.(k));
              pot.(u) <-
                weight.(k) -. (lam.(u) *. float_of_int tokens.(k)) +. pot.(dst.(k));
              state.(u) <- 2
            end
          done
        end
      done
    in
    let improve () =
      let improved = ref false in
      (* Phase 1: chase strictly better cycle ratios. *)
      for u = 0 to n - 1 do
        if alive.(u) then begin
          let best = ref policy.(u) in
          for k = first.(u) to last.(u) - 1 do
            if alive.(dst.(k)) && lam.(dst.(k)) > lam.(dst.(!best)) +. eps then best := k
          done;
          if lam.(dst.(!best)) > lam.(u) +. eps then begin
            policy.(u) <- !best;
            improved := true
          end
        end
      done;
      if not !improved then
        (* Phase 2: same ratio, better potential. *)
        for u = 0 to n - 1 do
          if alive.(u) then begin
            let k0 = policy.(u) in
            let best = ref k0
            and best_v =
              ref (weight.(k0) -. (lam.(u) *. float_of_int tokens.(k0)) +. pot.(dst.(k0)))
            in
            for k = first.(u) to last.(u) - 1 do
              let d = dst.(k) in
              if alive.(d) && Float.abs (lam.(d) -. lam.(u)) <= eps then begin
                let v = weight.(k) -. (lam.(u) *. float_of_int tokens.(k)) +. pot.(d) in
                if v > !best_v +. eps then begin
                  best := k;
                  best_v := v
                end
              end
            done;
            if !best <> k0 then begin
              policy.(u) <- !best;
              improved := true
            end
          end
        done;
      !improved
    in
    let rounds = ref 0 in
    evaluate ();
    while !stopped < 0 && improve () do
      incr rounds;
      if !rounds > 4 * (n + 8) then
        failwith "Mcr.solve: policy iteration failed to converge";
      evaluate ()
    done;
    if !stopped >= 0 then Some (!stopped, lam.(!stopped) -. margin)
    else begin
      (* The first node of maximal ratio. *)
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if alive.(v) && (!best < 0 || lam.(v) > lam.(!best)) then best := v
      done;
      Some (!best, lam.(!best))
    end
  end

(* ------------------------------------------------------------------ *)
(* Compiled graphs and spliced trials                                  *)
(* ------------------------------------------------------------------ *)

(* A trial's working storage, kept across the trials of one context.
   Node arrays hold [cap] entries.  [dst], [weight] and [tokens] hold the
   base rows, then, from the base arc count on, the changed rows of the
   current trial; they are the base's own arrays until [reserve] first
   grows them into copies.  [nodes] and [root] describe the last trial:
   its node count, and the node its solve returned ([-1] when it found no
   cycle or raised), whose policy walk leads to the cycle it stopped at or
   converged on. *)
type scratch = {
  cap : int;
  first : int array;
  last : int array;
  mutable dst : int array;
  mutable weight : float array;
  mutable tokens : int array;
  dropped : int array;  (* per base arc: the stamp of the trial dropping it *)
  row_stamp : int array;  (* per node: the stamp of the trial rebuilding its row *)
  rows : int array;  (* the rebuilt rows *)
  mark : int array;  (* per node: the stamp of the trial whose check reached it *)
  region : int array;
  indeg : int array;
  queue : int array;
  w : work;
  mutable stamp : int;
  mutable nodes : int;
  mutable root : int;
}

(* [bits] is [weight_bits] of the graph's weights, which only a cut solve
   asks for. *)
type context = {
  graph : Timed_graph.t;
  csr : csr;
  top : float;  (* the largest weight magnitude *)
  at_top : int;  (* arcs of that magnitude *)
  bits : (int * int) Lazy.t;
  mutable scratch : scratch option;
}

let context (g : Timed_graph.t) =
  let c = csr_of g in
  check_graph g.nodes c;
  let top, at_top = weight_top g.arc_weight in
  { graph = g; csr = c; top; at_top; bits = lazy (weight_bits g.arc_weight); scratch = None }

(* The context's scratch, with room for [nodes] nodes. *)
let scratch ctx ~nodes =
  match ctx.scratch with
  | Some s when s.cap >= nodes -> s
  | _ ->
      let cap = max nodes (ctx.graph.nodes + 2) and base = Array.length ctx.csr.dst in
      let s =
        {
          cap;
          first = Array.make cap 0;
          last = Array.make cap 0;
          dst = ctx.csr.dst;
          weight = ctx.csr.weight;
          tokens = ctx.csr.tokens;
          dropped = Array.make base 0;
          row_stamp = Array.make cap 0;
          rows = Array.make cap 0;
          mark = Array.make cap 0;
          region = Array.make cap 0;
          indeg = Array.make cap 0;
          queue = Array.make cap 0;
          w = work cap;
          stamp = 0;
          nodes = 0;
          root = -1;
        }
      in
      ctx.scratch <- Some s;
      s

(* Room for [arcs] entries after the base rows. *)
let reserve ctx s ~arcs =
  let base = Array.length ctx.csr.dst and size = Array.length s.dst in
  if size < base + arcs then begin
    let size = max (base + arcs) (base + (2 * (size - base)) + 64) in
    let extend a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 base;
      b
    in
    s.dst <- extend s.dst 0;
    s.weight <- extend s.weight 0.;
    s.tokens <- extend s.tokens 0
  end

let lambda ?hint ?cutoff g =
  let ctx = context g in
  let scale = Float.max 1. ctx.top in
  let exact =
    Option.is_some cutoff && exact_sums ~n:g.nodes ~scale ~bits:(fst (Lazy.force ctx.bits))
  in
  howard ?hint ?cutoff ~exact ~scale g.nodes ctx.csr (work g.nodes) |> Option.map snd

(* The policy cycle that the walk from [start] along [sigma] reaches:
   its nodes in arc order.  [seen v] marks [v] and tells whether it was
   marked before. *)
let policy_cycle ~sigma ~seen start =
  let v = ref start in
  while not (seen !v) do
    v := sigma !v
  done;
  let root = !v in
  let cycle = ref [ root ] and u = ref (sigma root) in
  while !u <> root do
    cycle := !u :: !cycle;
    u := sigma !u
  done;
  List.rev !cycle

let solve_in ?hint ctx =
  let n = ctx.graph.nodes and c = ctx.csr in
  let w = work n in
  (* Uncut, so exact sums change nothing. *)
  match howard ?hint ~exact:false ~scale:(Float.max 1. ctx.top) n c w with
  | None -> None
  | Some (best, lambda) ->
      (* A critical cycle: the one the ratio-maximizing node's walk
         reaches. *)
      let mark = Array.make n false in
      let seen v = mark.(v) || (mark.(v) <- true; false) in
      let cycle = policy_cycle ~sigma:(fun v -> c.dst.(w.policy.(v))) ~seen best in
      Some
        {
          lambda;
          cycle;
          cycle_arcs = List.map (fun v -> c.id.(w.policy.(v))) cycle;
          policy = Array.init n (fun v -> if w.alive.(v) then c.dst.(w.policy.(v)) else -1);
        }

let solve ?hint g = solve_in ?hint (context g)

let splice_lambda ?hint ?cutoff ctx (d : Timed_graph.delta) =
  let g = ctx.graph and b = ctx.csr and a = d.add in
  let n0 = g.nodes and n = d.nodes and adds = Timed_graph.arc_count a in
  if n < n0 || a.nodes <> n then
    invalid_arg "Mcr.splice_lambda: the delta does not extend the graph";
  let s = scratch ctx ~nodes:n in
  s.stamp <- s.stamp + 1;
  s.nodes <- n;
  s.root <- -1;
  let stamp = s.stamp in
  let first = s.first and last = s.last in
  Array.blit b.first 0 first 0 n0;
  Array.blit b.last 0 last 0 n0;
  Array.fill first n0 (n - n0) 0;
  Array.fill last n0 (n - n0) 0;
  (* The rows to rebuild are the tails of the dropped and the added arcs;
     [first] counts each one's entries for now. *)
  let touched = ref 0 in
  let touch v =
    if s.row_stamp.(v) <> stamp then begin
      s.row_stamp.(v) <- stamp;
      s.rows.(!touched) <- v;
      incr touched;
      first.(v) <- 0
    end
  in
  let dropped_top = ref 0 in
  Array.iter
    (fun k ->
      s.dropped.(k) <- stamp;
      if Float.abs g.arc_weight.(k) = ctx.top then incr dropped_top;
      touch g.arc_src.(k))
    d.drop;
  let top = ref 0. in
  for k = 0 to adds - 1 do
    let v = a.arc_src.(k) in
    touch v;
    first.(v) <- first.(v) + 1;
    top := Float.max !top (Float.abs a.arc_weight.(k))
  done;
  let entries = ref adds in
  for r = 0 to !touched - 1 do
    let v = s.rows.(r) in
    if v < n0 then
      for k = b.first.(v) to b.last.(v) - 1 do
        if s.dropped.(b.id.(k)) <> stamp then begin
          first.(v) <- first.(v) + 1;
          incr entries
        end
      done
  done;
  reserve ctx s ~arcs:!entries;
  let dst = s.dst and weight = s.weight and tokens = s.tokens in
  (* Untouched rows are the base's; the rebuilt ones follow the base rows
     and hold, as in [csr_of] of the spliced graph, their added arcs in
     descending index, then their surviving base arcs in base order. *)
  let pos = ref (Array.length b.dst) in
  for r = 0 to !touched - 1 do
    let v = s.rows.(r) in
    let len = first.(v) in
    first.(v) <- !pos;
    last.(v) <- !pos;
    pos := !pos + len
  done;
  let[@inline] put v dst' weight' tokens' =
    let p = last.(v) in
    dst.(p) <- dst';
    weight.(p) <- weight';
    tokens.(p) <- tokens';
    last.(v) <- p + 1
  in
  for k = adds - 1 downto 0 do
    put a.arc_src.(k) a.arc_dst.(k) a.arc_weight.(k) a.arc_tokens.(k)
  done;
  for r = 0 to !touched - 1 do
    let v = s.rows.(r) in
    if v < n0 then
      for k = b.first.(v) to b.last.(v) - 1 do
        if s.dropped.(b.id.(k)) <> stamp then put v b.dst.(k) b.weight.(k) b.tokens.(k)
      done
  done;
  let c = { first; last; dst; weight; tokens; id = [||] } in
  (* The base has no token-free cycle, so one in the trial runs through an
     added token-free arc and lies among the nodes token-free paths reach
     from the heads of those arcs. *)
  let len = ref 0 in
  let visit v =
    if s.mark.(v) <> stamp then begin
      s.mark.(v) <- stamp;
      s.region.(!len) <- v;
      incr len
    end
  in
  for k = 0 to adds - 1 do
    if a.arc_tokens.(k) = 0 then visit a.arc_dst.(k)
  done;
  let head = ref 0 in
  while !head < !len do
    let u = s.region.(!head) in
    incr head;
    for k = first.(u) to last.(u) - 1 do
      if tokens.(k) = 0 then visit dst.(k)
    done
  done;
  check_token_free_cycles c ~len:!len ~region:(Some s.region) ~indeg:s.indeg ~queue:s.queue;
  (* The spliced graph's largest weight: the base's, unless the trial
     drops every arc reaching it. *)
  let top =
    if !dropped_top < ctx.at_top || ctx.top <= 1. then Float.max ctx.top !top
    else begin
      let t = ref !top in
      for v = 0 to n - 1 do
        for k = first.(v) to last.(v) - 1 do
          t := Float.max !t (Float.abs weight.(k))
        done
      done;
      !t
    end
  in
  let scale = Float.max 1. top in
  (* Its fraction bits likewise, for a cut solve. *)
  let exact =
    Option.is_some cutoff
    &&
    let base_bits, at_bits = Lazy.force ctx.bits in
    let dropped = ref 0 and bits = ref 0 in
    for i = 0 to Array.length d.drop - 1 do
      if needs_bits base_bits g.arc_weight.(d.drop.(i)) then incr dropped
    done;
    for k = 0 to adds - 1 do
      bits := fraction_bits !bits a.arc_weight.(k)
    done;
    if !dropped < at_bits || base_bits = 0 || !bits >= base_bits then
      bits := max base_bits !bits
    else
      for v = 0 to n - 1 do
        for k = first.(v) to last.(v) - 1 do
          bits := fraction_bits !bits weight.(k)
        done
      done;
    exact_sums ~n ~scale ~bits:!bits
  in
  match howard ?hint ?cutoff ~exact ~scale n c s.w with
  | None -> None
  | Some (root, lambda) ->
      s.root <- root;
      Some lambda

(* The last spliced trial's policy, as the successor of each of its
   nodes. *)
let last_sigma ctx =
  match ctx.scratch with
  | Some s when s.root >= 0 -> Some (s, fun v -> s.dst.(s.w.policy.(v)))
  | _ -> None

let trial_cycle ctx =
  match last_sigma ctx with
  | None -> []
  | Some (s, sigma) ->
      s.stamp <- s.stamp + 1;
      let seen v = s.mark.(v) = s.stamp || (s.mark.(v) <- s.stamp; false) in
      policy_cycle ~sigma ~seen s.root

let trial_policy ctx =
  match last_sigma ctx with
  | None -> [||]
  | Some (s, sigma) -> Array.init s.nodes (fun v -> if s.w.alive.(v) then sigma v else -1)

(* ------------------------------------------------------------------ *)
(* Karp's algorithm on the token-level unfolding (independent check)   *)
(* ------------------------------------------------------------------ *)

(* Iterative Tarjan SCC. *)
let scc_ids nodes (out : (int * float) list array) =
  let ids = Array.make nodes (-1) in
  let low = Array.make nodes 0 in
  let num = Array.make nodes (-1) in
  let on_stack = Array.make nodes false in
  let stack = ref [] in
  let counter = ref 0 in
  let comps = ref 0 in
  for root = 0 to nodes - 1 do
    if num.(root) < 0 then begin
      (* Explicit DFS stack: (node, remaining successors). *)
      let work = ref [ (root, ref out.(root)) ] in
      num.(root) <- !counter;
      low.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !work <> [] do
        match !work with
        | [] -> ()
        | (v, succs) :: rest -> (
            match !succs with
            | (w, _) :: tl ->
                succs := tl;
                if num.(w) < 0 then begin
                  num.(w) <- !counter;
                  low.(w) <- !counter;
                  incr counter;
                  stack := w :: !stack;
                  on_stack.(w) <- true;
                  work := (w, ref out.(w)) :: !work
                end
                else if on_stack.(w) then low.(v) <- min low.(v) num.(w)
            | [] ->
                work := rest;
                (match rest with
                | (p, _) :: _ -> low.(p) <- min low.(p) low.(v)
                | [] -> ());
                if low.(v) = num.(v) then begin
                  let continue = ref true in
                  while !continue do
                    match !stack with
                    | [] -> assert false
                    | w :: tl ->
                        stack := tl;
                        on_stack.(w) <- false;
                        ids.(w) <- !comps;
                        if w = v then continue := false
                  done;
                  incr comps
                end)
      done
    end
  done;
  (ids, !comps)

let karp (g : Timed_graph.t) =
  check_graph g.nodes (csr_of g);
  (* Expand multi-token arcs into unit-token chains through fresh nodes so
     that one level of the unfolding consumes exactly one token. *)
  let extra =
    Array.fold_left (fun acc k -> acc + max 0 (k - 1)) 0 g.arc_tokens
  in
  let nodes = g.nodes + extra in
  let fresh = ref g.nodes in
  let expanded = ref [] in
  for k = 0 to Timed_graph.arc_count g - 1 do
    let src = g.arc_src.(k) and dst = g.arc_dst.(k) in
    let weight = g.arc_weight.(k) and tokens = g.arc_tokens.(k) in
    if tokens <= 1 then expanded := (src, dst, weight, tokens) :: !expanded
    else begin
      let prev = ref src and w = ref weight in
      for _ = 1 to tokens - 1 do
        expanded := (!prev, !fresh, !w, 1) :: !expanded;
        prev := !fresh;
        w := 0.;
        incr fresh
      done;
      expanded := (!prev, dst, 0., 1) :: !expanded
    end
  done;
  let arcs = !expanded in
  let out = Array.make nodes [] in
  List.iter (fun (s, d, w, _) -> out.(s) <- (d, w) :: out.(s)) arcs;
  let ids, ncomps = scc_ids nodes out in
  let members = Array.make ncomps [] in
  for v = nodes - 1 downto 0 do
    members.(ids.(v)) <- v :: members.(ids.(v))
  done;
  let comp_arcs = Array.make ncomps [] in
  List.iter
    (fun ((s, d, _, _) as a) ->
      if ids.(s) = ids.(d) then comp_arcs.(ids.(s)) <- a :: comp_arcs.(ids.(s)))
    arcs;
  let best = ref None in
  let consider lambda =
    match !best with
    | Some b when b >= lambda -> ()
    | _ -> best := Some lambda
  in
  for c = 0 to ncomps - 1 do
    let mem = members.(c) in
    let m = List.length mem in
    if comp_arcs.(c) <> [] then begin
      (* Local numbering. *)
      let local = Hashtbl.create (2 * m) in
      List.iteri (fun k v -> Hashtbl.replace local v k) mem;
      let lc v = Hashtbl.find local v in
      let token_arcs = ref [] and zout = Array.make m [] in
      let z_indeg = Array.make m 0 in
      List.iter
        (fun (s, d, w, t) ->
          if t = 0 then begin
            zout.(lc s) <- (lc d, w) :: zout.(lc s);
            z_indeg.(lc d) <- z_indeg.(lc d) + 1
          end
          else token_arcs := (lc s, lc d, w) :: !token_arcs)
        comp_arcs.(c);
      (* Topological order of the token-free sub-graph (its acyclicity was
         established globally). *)
      let topo = Array.make m 0 in
      let filled = ref 0 in
      let q = Queue.create () in
      for v = 0 to m - 1 do
        if z_indeg.(v) = 0 then Queue.push v q
      done;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        topo.(!filled) <- u;
        incr filled;
        List.iter
          (fun (v, _) ->
            z_indeg.(v) <- z_indeg.(v) - 1;
            if z_indeg.(v) = 0 then Queue.push v q)
          zout.(u)
      done;
      assert (!filled = m);
      let z_relax d =
        Array.iter
          (fun u ->
            List.iter
              (fun (v, w) -> if d.(u) +. w > d.(v) then d.(v) <- d.(u) +. w)
              zout.(u))
          topo
      in
      if !token_arcs <> [] then begin
        (* Condense to head nodes: every token arc enters a head, every
           cycle alternates z-paths with token arcs, so Karp's bound on the
           condensed graph is h = #heads. *)
        let is_head = Array.make m false in
        List.iter (fun (_, d, _) -> is_head.(d) <- true) !token_arcs;
        let heads = ref [] in
        for v = m - 1 downto 0 do
          if is_head.(v) then heads := v :: !heads
        done;
        let heads = Array.of_list !heads in
        let h = Array.length heads in
        let hist = Array.make_matrix (h + 1) h neg_infinity in
        let record k d = Array.iteri (fun j v -> hist.(k).(j) <- d.(v)) heads in
        let prev = Array.make m neg_infinity in
        let cur = Array.make m neg_infinity in
        prev.(heads.(0)) <- 0.;
        z_relax prev;
        record 0 prev;
        let prev = ref prev and cur = ref cur in
        for k = 1 to h do
          Array.fill !cur 0 m neg_infinity;
          List.iter
            (fun (s, d, w) ->
              let p = !prev in
              if p.(s) +. w > !cur.(d) then !cur.(d) <- p.(s) +. w)
            !token_arcs;
          z_relax !cur;
          record k !cur;
          let t = !prev in
          prev := !cur;
          cur := t
        done;
        for j = 0 to h - 1 do
          if hist.(h).(j) > neg_infinity then begin
            let worst = ref infinity in
            for k = 0 to h - 1 do
              let r = (hist.(h).(j) -. hist.(k).(j)) /. float_of_int (h - k) in
              if r < !worst then worst := r
            done;
            if Float.is_finite !worst then consider !worst
          end
        done
      end
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Potentials and slack                                                *)
(* ------------------------------------------------------------------ *)

let potentials_of n ({ first; last; dst; weight; tokens; _ } : csr) ~scale ~lambda =
  let d = Array.make n 0. in
  let eps = 1e-9 *. scale in
  let in_queue = Array.make n true in
  let bumps = Array.make n 0 in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    Queue.push v q
  done;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    in_queue.(u) <- false;
    for k = first.(u) to last.(u) - 1 do
      let v = dst.(k) in
      let nv = d.(u) +. weight.(k) -. (lambda *. float_of_int tokens.(k)) in
      if nv > d.(v) +. eps then begin
        d.(v) <- nv;
        bumps.(v) <- bumps.(v) + 1;
        if bumps.(v) > n + 2 then
          invalid_arg "Mcr.potentials: positive cycle (lambda below the MCR)";
        if not in_queue.(v) then begin
          in_queue.(v) <- true;
          Queue.push v q
        end
      end
    done
  done;
  d

let potentials (g : Timed_graph.t) ~lambda =
  potentials_of g.nodes (csr_of g) ~scale:(weight_scale g) ~lambda

let slacks (g : Timed_graph.t) d ~lambda =
  Array.init (Timed_graph.arc_count g) (fun k ->
      d.(g.arc_dst.(k)) -. d.(g.arc_src.(k)) -. g.arc_weight.(k)
      +. (lambda *. float_of_int g.arc_tokens.(k)))

let arc_slacks g ~lambda = slacks g (potentials g ~lambda) ~lambda

let arc_slacks_in ctx ~lambda =
  let g = ctx.graph in
  slacks g (potentials_of g.nodes ctx.csr ~scale:(Float.max 1. ctx.top) ~lambda) ~lambda
