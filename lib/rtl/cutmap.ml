module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

type mode = Depth | Delay | Ee_aware

let is_leaf = function
  | Gates.Gconst _ | Gates.Ginput _ | Gates.Greg _ -> true
  | Gates.Gnot _ | Gates.Gand _ | Gates.Gor _ | Gates.Gxor _ | Gates.Gmux _ -> false

(* Expected arrival of a cut under early evaluation, in level units with a
   uniform-input trigger-rate model (see Ee_core.Analysis). *)
let ee_expected_arrival ?memo gates root cut leaf_arrival =
  let f = Gates.cone_lut4 gates ~root ~leaves:cut in
  let arrivals = Array.of_list (List.map leaf_arrival cut) in
  let support = Lut4.support f in
  let m_max =
    Ee_util.Bits.fold_bits support (fun acc p -> max acc arrivals.(p)) 0.
  in
  let base = m_max +. 1. in
  let best =
    List.fold_left
      (fun acc (c : Ee_core.Trigger.candidate) ->
        let t_max =
          Ee_util.Bits.fold_bits c.Ee_core.Trigger.subset
            (fun a p -> max a arrivals.(p))
            0.
        in
        if t_max >= m_max then acc
        else
          let p = float_of_int c.Ee_core.Trigger.coverage_count /. 16. in
          min acc ((p *. (t_max +. 1.)) +. ((1. -. p) *. base)))
      base
      (Ee_core.Trigger.candidates ?memo f)
  in
  best

(* Sorted union of the first [la] leaves of [a] and the cut [b] into [dst],
   returning its size, or [-1] as soon as it passes [cap] leaves. *)
let merge_cut ~cap a la b dst =
  let lb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !k >= 0 && (!i < la || !j < lb) do
    if !k = cap then k := -1
    else begin
      if !j = lb || (!i < la && a.(!i) < b.(!j)) then begin
        dst.(!k) <- a.(!i);
        incr i
      end
      else begin
        let y = b.(!j) in
        dst.(!k) <- y;
        if !i < la && a.(!i) = y then incr i;
        incr j
      end;
      incr k
    end
  done;
  !k

(* Priority-cuts labeling: per node the chosen cut (best achievable
   arrival) and its label, with the leaf cap as a parameter so the same
   machinery serves the LUT4 mapper ([cap = 4]) and the wide-cover
   analysis ([cap = lut_k] up to 8).  A cut is a sorted [int array] of
   gate indices.

   Per node, the merged cuts are ranked by (depth score, size, leaves
   lexicographically); the first [max cuts_per_node 12] distinct ones are
   kept as they are merged, in [slots] of [cap] leaves each, so a merge
   that loses allocates nothing.  The shortlist is then re-ranked, stably,
   by (score, tiebreak, size). *)
let best_cuts ~cap ~mode ~cuts_per_node ?memo (c : Gates.circuit) =
  let gates = c.Gates.gates in
  let n = Array.length gates in
  (* Fanout reference counts, for the area-flow estimate of [Delay] mode.
     Interface roots (outputs, register next-state bits) count as one
     reference each. *)
  let refs = Array.make n 0 in
  Array.iter (fun g -> List.iter (fun f -> refs.(f) <- refs.(f) + 1) (Gates.fanins g)) gates;
  List.iter
    (fun (_, bits) -> Array.iter (fun g -> refs.(g) <- refs.(g) + 1) bits)
    c.Gates.reg_next;
  List.iter
    (fun (_, bits) -> Array.iter (fun g -> refs.(g) <- refs.(g) + 1) bits)
    c.Gates.out_bits;
  (* Per node: priority cuts (the trivial cut first) plus the node's label
     (best achievable arrival) and chosen cut. *)
  let cut_lists = Array.make n [||] in
  let labels = Array.make n 0. in
  let aflow = Array.make n 0. in
  let best_cut = Array.make n [||] in
  let keep = max cuts_per_node 12 in
  (* Slot [s] holds [size.(s)] leaves at [leaves.(s * cap)]; [rank.(r)] is
     the slot of the [r]-th best cut so far, [ranked] of them.  Slot
     [rank.(keep)] is where the next candidate is merged. *)
  let leaves = Array.make ((keep + 1) * cap) 0 in
  let size = Array.make (keep + 1) 0 in
  let depth = Array.make (keep + 1) 0. in
  let rank = Array.init (keep + 1) Fun.id in
  let ranked = ref 0 in
  (* Partial merges, one per fanin depth (at most three fanins). *)
  let part = Array.init 4 (fun _ -> Array.make cap 0) in
  let plen = Array.make 4 0 in
  (* Order of slots [s] and [t] by (depth, size, leaves). *)
  let compare_slots s t =
    if depth.(s) <> depth.(t) then if depth.(s) < depth.(t) then -1 else 1
    else if size.(s) <> size.(t) then compare size.(s) size.(t)
    else begin
      let k = ref 0 and len = size.(s) in
      while !k < len && leaves.((s * cap) + !k) = leaves.((t * cap) + !k) do
        incr k
      done;
      if !k = len then 0 else compare leaves.((s * cap) + !k) leaves.((t * cap) + !k)
    end
  in
  (* The rank of the cut in slot [free], scanning up from rank [r - 1]
     (most candidates lose to the worst ranked cut), or [keep] when it
     equals a ranked cut. *)
  let rec position free r =
    if r = 0 then 0
    else
      match compare_slots free rank.(r - 1) with
      | 0 -> keep
      | x when x < 0 -> position free (r - 1)
      | _ -> r
  in
  (* Rank the candidate in [part.(d)]: drop it when equal to a ranked cut
     or ranked past [keep]. *)
  let offer d =
    let free = rank.(keep) in
    let len = plen.(d) in
    let latest = ref 0. in
    for k = 0 to len - 1 do
      let l = part.(d).(k) in
      leaves.((free * cap) + k) <- l;
      if not (!latest >= labels.(l)) then latest := labels.(l)
    done;
    size.(free) <- len;
    depth.(free) <- 1. +. !latest;
    let r = position free !ranked in
    if r < keep then begin
      (* Shift the worse cuts down; the one pushed past [keep] (or the old
         free slot) becomes the free slot. *)
      let last = min !ranked (keep - 1) in
      let spill = rank.(last) in
      for q = last downto r + 1 do
        rank.(q) <- rank.(q - 1)
      done;
      rank.(r) <- free;
      rank.(keep) <- spill;
      if !ranked < keep then incr ranked
    end
  in
  let fanins = Array.make 3 0 in
  let rec enumerate d nfan =
    if d = nfan then offer d
    else begin
      let cuts = cut_lists.(fanins.(d)) in
      for c = 0 to Array.length cuts - 1 do
        let len = merge_cut ~cap part.(d) plen.(d) cuts.(c) part.(d + 1) in
        if len >= 0 then begin
          plen.(d + 1) <- len;
          enumerate (d + 1) nfan
        end
      done
    end
  in
  let cut_of s = Array.sub leaves (s * cap) size.(s) in
  let score = Array.make keep 0. and tie = Array.make keep 0. in
  let order = Array.make keep 0 in
  for i = 0 to n - 1 do
    if is_leaf gates.(i) then begin
      labels.(i) <- 0.;
      cut_lists.(i) <- [| [| i |] |];
      best_cut.(i) <- [| i |]
    end
    else begin
      let nfan =
        match gates.(i) with
        | Gates.Gnot x ->
            fanins.(0) <- x;
            1
        | Gates.Gand (x, y) | Gates.Gor (x, y) | Gates.Gxor (x, y) ->
            fanins.(0) <- x;
            fanins.(1) <- y;
            2
        | Gates.Gmux (s, f0, f1) ->
            fanins.(0) <- s;
            fanins.(1) <- f0;
            fanins.(2) <- f1;
            3
        | Gates.Gconst _ | Gates.Ginput _ | Gates.Greg _ -> assert false
      in
      ranked := 0;
      plen.(0) <- 0;
      enumerate 0 nfan;
      let m = !ranked in
      if m = 0 then invalid_arg "Cutmap.run: node with no feasible cut";
      (* Area flow of covering [i] with the cut in slot [s]: one LUT plus
         the flow of the leaves, amortized over this node's fanout
         (Mishchenko et al.; arrival-time primary key keeps the Depth-mode
         depth guarantee). *)
      let slot_aflow s =
        let sum = ref 0. in
        for k = 0 to size.(s) - 1 do
          sum := !sum +. aflow.(leaves.((s * cap) + k))
        done;
        (1. +. !sum) /. float_of_int (max refs.(i) 1)
      in
      (* Tiebreak among equal-arrival cuts: area flow in [Delay] mode, cut
         width otherwise (and as the final key everywhere).  Insertion
         sort keeps the shortlist's order among ties. *)
      for r = 0 to m - 1 do
        let s = rank.(r) in
        let sc =
          match mode with
          | Depth | Delay -> depth.(s)
          | Ee_aware ->
              ee_expected_arrival ?memo gates i (Array.to_list (cut_of s)) (fun l -> labels.(l))
        in
        let tb = match mode with Delay -> slot_aflow s | Depth | Ee_aware -> 0. in
        let before q =
          let t = order.(q) in
          match Float.compare score.(t) sc with
          | 0 -> (
              match Float.compare tie.(t) tb with
              | 0 -> size.(rank.(t)) > size.(s)
              | x -> x > 0)
          | x -> x > 0
        in
        let q = ref r in
        while !q > 0 && before (!q - 1) do
          order.(!q) <- order.(!q - 1);
          decr q
        done;
        order.(!q) <- r;
        score.(r) <- sc;
        tie.(r) <- tb
      done;
      let first = order.(0) in
      labels.(i) <- score.(first);
      aflow.(i) <- slot_aflow rank.(first);
      best_cut.(i) <- cut_of rank.(first);
      (* Parents may also treat this node as a leaf (trivial cut). *)
      cut_lists.(i) <-
        Array.init
          (1 + min cuts_per_node m)
          (fun k ->
            if k = 0 then [| i |]
            else if k = 1 then best_cut.(i)
            else cut_of rank.(order.(k - 1)))
    end
  done;
  best_cut

let run ?(mode = Depth) ?(cuts_per_node = 8) ?memo ?(flat_ports = false)
    (c : Gates.circuit) =
  let gates = c.Gates.gates in
  let n = Array.length gates in
  let best_cut = best_cuts ~cap:4 ~mode ~cuts_per_node ?memo c in
  (* Emit the netlist from the interface roots.  [flat_ports] keeps the
     verbatim name for width-1 ports instead of [name[0]], so netlists that
     came in through the frontend keep their port interface (Equiv matches
     ports by name). *)
  let bit_name name width k =
    if flat_ports && width = 1 then name else Printf.sprintf "%s[%d]" name k
  in
  let b = Netlist.builder () in
  let input_ids = Hashtbl.create 64 in
  List.iter
    (fun (name, width) ->
      for k = 0 to width - 1 do
        Hashtbl.replace input_ids (name, k) (Netlist.add_input b (bit_name name width k))
      done)
    c.Gates.input_bits;
  let reg_ids = Hashtbl.create 64 in
  List.iter
    (fun (name, width, init) ->
      for k = 0 to width - 1 do
        Hashtbl.replace reg_ids (name, k)
          (Netlist.add_dff b ~init:((init lsr k) land 1 = 1))
      done)
    c.Gates.reg_bits;
  let const_cache = Hashtbl.create 4 in
  let node_of = Array.make n (-1) in
  let rec emit i =
    if node_of.(i) >= 0 then node_of.(i)
    else begin
      let id =
        match gates.(i) with
        | Gates.Gconst v -> (
            match Hashtbl.find_opt const_cache v with
            | Some id -> id
            | None ->
                let id = Netlist.add_const b v in
                Hashtbl.replace const_cache v id;
                id)
        | Gates.Ginput (nm, k) -> Hashtbl.find input_ids (nm, k)
        | Gates.Greg (nm, k) -> Hashtbl.find reg_ids (nm, k)
        | _ ->
            let cut = best_cut.(i) in
            let func = Gates.cone_lut4 gates ~root:i ~leaves:(Array.to_list cut) in
            let fanin = Array.map emit cut in
            Netlist.add_lut b func fanin
      in
      node_of.(i) <- id;
      id
    end
  in
  List.iter
    (fun (name, bits) ->
      Array.iteri
        (fun k g -> Netlist.connect_dff b (Hashtbl.find reg_ids (name, k)) ~d:(emit g))
        bits)
    c.Gates.reg_next;
  List.iter
    (fun (name, bits) ->
      let width = Array.length bits in
      Array.iteri
        (fun k g -> Netlist.set_output b (bit_name name width k) (emit g))
        bits)
    c.Gates.out_bits;
  Netlist.finalize b

let run_rtl ?mode ?cuts_per_node ?memo ?flat_ports d =
  run ?mode ?cuts_per_node ?memo ?flat_ports (Elaborate.run d)

type wide_lut = {
  wroot : int;
  wleaves : int list;
  wfunc : Ee_logic.Truthtab.t;
}

let wide_covers ?(lut_k = 6) ?(cuts_per_node = 8) (c : Gates.circuit) =
  if lut_k < 4 || lut_k > 8 then
    invalid_arg "Cutmap.wide_covers: lut_k must be in 4..8";
  let gates = c.Gates.gates in
  let best_cut = best_cuts ~cap:lut_k ~mode:Depth ~cuts_per_node c in
  let covers = ref [] in
  let visited = Array.make (Array.length gates) false in
  let rec walk i =
    if not (visited.(i) || is_leaf gates.(i)) then begin
      visited.(i) <- true;
      let wleaves = Array.to_list best_cut.(i) in
      let wfunc = Gates.cone_function gates ~root:i ~leaves:wleaves in
      covers := { wroot = i; wleaves; wfunc } :: !covers;
      List.iter walk wleaves
    end
  in
  List.iter
    (fun (_, bits) -> Array.iter walk bits)
    (c.Gates.reg_next @ c.Gates.out_bits);
  List.sort (fun a b -> compare a.wroot b.wroot) !covers
