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

(* Priority-cuts labeling: per node the chosen cut (best achievable
   arrival) and its label, with the leaf cap as a parameter so the same
   machinery serves the LUT4 mapper ([cap = 4]) and the wide-cover
   analysis ([cap = lut_k] up to 8). *)
let label_cuts ~cap ~mode ~cuts_per_node ?memo (c : Gates.circuit) =
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
  (* Per node: priority cut list (each cut sorted, without the trivial cut)
     plus the node's label (best achievable arrival) and chosen cut. *)
  let cut_lists = Array.make n [] in
  let labels = Array.make n 0. in
  let aflow = Array.make n 0. in
  let best_cut = Array.make n [] in
  let merge_cuts lists =
    (* Cartesian merge of one cut per fanin, capped at [cap] leaves. *)
    let rec go acc = function
      | [] -> [ acc ]
      | options :: rest ->
          List.concat_map
            (fun cut ->
              let merged = List.sort_uniq compare (acc @ cut) in
              if List.length merged <= cap then go merged rest else [])
            options
    in
    go [] lists
  in
  for i = 0 to n - 1 do
    if is_leaf gates.(i) then begin
      labels.(i) <- 0.;
      cut_lists.(i) <- [ [ i ] ];
      best_cut.(i) <- [ i ]
    end
    else begin
      let fanins = Gates.fanins gates.(i) in
      let options = List.map (fun f -> cut_lists.(f)) fanins in
      let merged = List.sort_uniq compare (merge_cuts options) in
      (* Depth pre-score to bound the expensive EE scoring. *)
      let depth_score cut =
        1. +. List.fold_left (fun acc l -> max acc labels.(l)) 0. cut
      in
      let pre =
        List.stable_sort
          (fun a b ->
            match compare (depth_score a) (depth_score b) with
            | 0 -> compare (List.length a) (List.length b)
            | x -> x)
          merged
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: r -> x :: take (k - 1) r
      in
      let shortlist = take (max cuts_per_node 12) pre in
      (* Area flow of covering [i] with [cut]: one LUT plus the flow of the
         leaves, amortized over this node's fanout (Mishchenko et al.;
         arrival-time primary key keeps the Depth-mode depth guarantee). *)
      let cut_aflow cut =
        (1. +. List.fold_left (fun acc l -> acc +. aflow.(l)) 0. cut)
        /. float_of_int (max refs.(i) 1)
      in
      let score cut =
        match mode with
        | Depth | Delay -> depth_score cut
        | Ee_aware -> ee_expected_arrival ?memo gates i cut (fun l -> labels.(l))
      in
      (* Tiebreak among equal-arrival cuts: area flow in [Delay] mode, cut
         width otherwise (and as the final key everywhere). *)
      let tiebreak cut =
        match mode with Delay -> cut_aflow cut | Depth | Ee_aware -> 0.
      in
      let scored =
        List.stable_sort
          (fun (sa, ta, a) (sb, tb, b) ->
            match compare sa sb with
            | 0 -> (
                match compare ta tb with
                | 0 -> compare (List.length a) (List.length b)
                | x -> x)
            | x -> x)
          (List.map (fun cut -> (score cut, tiebreak cut, cut)) shortlist)
      in
      match scored with
      | [] -> invalid_arg "Cutmap.run: node with no feasible cut"
      | (s, _, cut) :: _ ->
          labels.(i) <- s;
          aflow.(i) <- cut_aflow cut;
          best_cut.(i) <- cut;
          (* Parents may also treat this node as a leaf (trivial cut). *)
          cut_lists.(i) <-
            [ i ] :: take cuts_per_node (List.map (fun (_, _, cut) -> cut) scored)
    end
  done;
  best_cut

let run ?(mode = Depth) ?(cuts_per_node = 8) ?memo ?(flat_ports = false)
    (c : Gates.circuit) =
  let gates = c.Gates.gates in
  let n = Array.length gates in
  let best_cut = label_cuts ~cap:4 ~mode ~cuts_per_node ?memo c in
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
            let func = Gates.cone_lut4 gates ~root:i ~leaves:cut in
            let fanin = Array.of_list (List.map emit cut) in
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
  let best_cut = label_cuts ~cap:lut_k ~mode:Depth ~cuts_per_node c in
  let covers = ref [] in
  let visited = Array.make (Array.length gates) false in
  let rec walk i =
    if not (visited.(i) || is_leaf gates.(i)) then begin
      visited.(i) <- true;
      let cut = best_cut.(i) in
      let wfunc = Gates.cone_function gates ~root:i ~leaves:cut in
      covers := { wroot = i; wleaves = cut; wfunc } :: !covers;
      List.iter walk cut
    end
  in
  List.iter
    (fun (_, bits) -> Array.iter walk bits)
    (c.Gates.reg_next @ c.Gates.out_bits);
  List.sort (fun a b -> compare a.wroot b.wroot) !covers
