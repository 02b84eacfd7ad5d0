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

let weight_scale (g : Timed_graph.t) =
  Array.fold_left (fun acc w -> Float.max acc (Float.abs w)) 1. g.arc_weight

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

(* Compressed sparse rows: node [v]'s out-arcs occupy positions [off.(v)]
   to [off.(v+1) - 1] of [dst], [weight], [tokens] and [id] (the arc's
   index in the graph), in descending arc index. *)
type csr = {
  off : int array;
  dst : int array;
  weight : float array;
  tokens : int array;
  id : int array;
}

let csr_of (g : Timed_graph.t) =
  let off, id = rows g.nodes g.arc_src in
  {
    off;
    id;
    dst = Array.map (Array.get g.arc_dst) id;
    weight = Array.map (Array.get g.arc_weight) id;
    tokens = Array.map (Array.get g.arc_tokens) id;
  }

(* Every directed cycle must carry a token for a steady state to exist:
   Kahn's algorithm on the token-free sub-graph; leftovers form a cycle. *)
let check_token_free_cycles n c =
  let indeg = Array.make n 0 in
  Array.iteri (fun k d -> if c.tokens.(k) = 0 then indeg.(d) <- indeg.(d) + 1) c.dst;
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = c.off.(u) to c.off.(u + 1) - 1 do
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
  if !tail < n then
    raise
      (Not_live
         (Printf.sprintf
            "token-free cycle through %d node(s): no steady state exists"
            (n - !tail)))

(* ------------------------------------------------------------------ *)
(* Howard's policy iteration (multichain max-cycle-ratio variant)      *)
(* ------------------------------------------------------------------ *)

(* Converged policy iteration: the CSR, the live nodes, each live node's
   policy arc (a CSR position), a node of maximal cycle ratio and that
   ratio.  [None] when no node lies on or leads to a cycle.  With
   [cutoff], the iteration stops at the first policy cycle whose ratio
   exceeds [cutoff] by more than twice the tolerance; the node returned is
   that cycle's root and the ratio returned is the cycle's less the
   tolerance. *)
let howard ?(eps = 1e-12) ?hint ?(cutoff = infinity) (g : Timed_graph.t) =
  let n = g.nodes in
  let c = csr_of g in
  check_token_free_cycles n c;
  let { off; dst; weight; tokens; _ } = c in
  (* Keep only nodes that can lie on a cycle: repeatedly discard nodes with
     no live outgoing arc (a node whose every path leaves the graph never
     constrains the steady state). *)
  let alive = Array.make n true in
  let out_deg = Array.init n (fun v -> off.(v + 1) - off.(v)) in
  let kill = Array.make n 0 in
  let tail = ref 0 in
  let doom v =
    kill.(!tail) <- v;
    incr tail
  in
  for v = 0 to n - 1 do
    if out_deg.(v) = 0 then doom v
  done;
  (* In a netlist's event graph every consumer acknowledges its producers,
     so only isolated gates lack an out-arc; the predecessor rows are built
     only when some node needs discarding. *)
  if !tail > 0 then begin
    let in_off, in_ids = rows n g.arc_dst in
    let head = ref 0 in
    while !head < !tail do
      let v = kill.(!head) in
      incr head;
      alive.(v) <- false;
      for k = in_off.(v) to in_off.(v + 1) - 1 do
        let u = g.arc_src.(in_ids.(k)) in
        if alive.(u) then begin
          out_deg.(u) <- out_deg.(u) - 1;
          if out_deg.(u) = 0 then doom u
        end
      done
    done
  end;
  if !tail = n then None
  else begin
    let scale = weight_scale g in
    let eps = eps *. scale in
    (* Every policy cycle is a cycle of the graph, so its ratio is a lower
       bound on the maximum.  The same cycle summed from another root may
       differ in the last bits, so the bound reported is the ratio less
       [eps], and a solve stops only [2 eps] above the cutoff: one whose
       maximum is at most the cutoff runs to convergence, and the bound
       returned by one that stops still exceeds the cutoff. *)
    let stop_above = cutoff +. (2. *. eps) in
    let stopped = ref (-1) in
    (* Initial policy: the hinted successor when a live arc reaches it,
       otherwise the node's first live arc. *)
    let policy = Array.make n (-1) in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let want =
          match hint with Some h when v < Array.length h -> h.(v) | _ -> -1
        in
        let first = ref (-1) and hinted = ref (-1) in
        for k = off.(v + 1) - 1 downto off.(v) do
          if alive.(dst.(k)) then begin
            first := k;
            if dst.(k) = want then hinted := k
          end
        done;
        policy.(v) <- (if !hinted >= 0 then !hinted else !first)
      end
    done;
    let lam = Array.make n neg_infinity in
    let pot = Array.make n 0. in
    (* 0 = unvisited, 1 = on the current sigma-walk, 2 = evaluated *)
    let state = Array.make n 0 in
    let path = Array.make n 0 in
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
          for k = off.(u) to off.(u + 1) - 1 do
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
            for k = off.(u) to off.(u + 1) - 1 do
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
    if !stopped >= 0 then Some (c, alive, policy, !stopped, lam.(!stopped) -. eps)
    else begin
      (* The first node of maximal ratio. *)
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if alive.(v) && (!best < 0 || lam.(v) > lam.(!best)) then best := v
      done;
      Some (c, alive, policy, !best, lam.(!best))
    end
  end

let lambda ?eps ?hint ?cutoff g =
  Option.map (fun (_, _, _, _, lambda) -> lambda) (howard ?eps ?hint ?cutoff g)

let solve ?eps ?hint g =
  match howard ?eps ?hint g with
  | None -> None
  | Some (c, alive, policy, best, lambda) ->
      (* Extract a critical cycle: walk sigma from the ratio-maximizing
         node until it closes. *)
      let n = g.Timed_graph.nodes in
      let sigma v = c.dst.(policy.(v)) in
      let mark = Array.make n false in
      let v = ref best in
      while not mark.(!v) do
        mark.(!v) <- true;
        v := sigma !v
      done;
      let root = !v in
      let cycle = ref [] and cycle_arcs = ref [] in
      let u = ref root in
      let continue = ref true in
      while !continue do
        cycle := !u :: !cycle;
        cycle_arcs := c.id.(policy.(!u)) :: !cycle_arcs;
        u := sigma !u;
        if !u = root then continue := false
      done;
      Some
        {
          lambda;
          cycle = List.rev !cycle;
          cycle_arcs = List.rev !cycle_arcs;
          policy = Array.init n (fun v -> if alive.(v) then sigma v else -1);
        }

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
  check_token_free_cycles g.nodes (csr_of g);
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

let potentials (g : Timed_graph.t) ~lambda =
  let n = g.nodes in
  let d = Array.make n 0. in
  let { off; dst; weight; tokens; _ } = csr_of g in
  let eps = 1e-9 *. weight_scale g in
  let in_queue = Array.make n true in
  let bumps = Array.make n 0 in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    Queue.push v q
  done;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    in_queue.(u) <- false;
    for k = off.(u) to off.(u + 1) - 1 do
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

let arc_slacks (g : Timed_graph.t) ~lambda =
  let d = potentials g ~lambda in
  Array.init (Timed_graph.arc_count g) (fun k ->
      d.(g.arc_dst.(k)) -. d.(g.arc_src.(k)) -. g.arc_weight.(k)
      +. (lambda *. float_of_int g.arc_tokens.(k)))
