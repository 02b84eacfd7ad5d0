module Netlist = Ee_netlist.Netlist

let bit_name name k = Printf.sprintf "%s[%d]" name k

let is_comb = function
  | Gates.Gnot _ | Gates.Gand _ | Gates.Gor _ | Gates.Gxor _ | Gates.Gmux _ -> true
  | Gates.Gconst _ | Gates.Ginput _ | Gates.Greg _ -> false

let run (c : Gates.circuit) =
  let n = Gates.gate_count c in
  let fanout = Array.make n 0 in
  Array.iter
    (fun g -> List.iter (fun x -> fanout.(x) <- fanout.(x) + 1) (Gates.fanins g))
    c.gates;
  let interface_used = Array.make n false in
  let mark_bits bits = Array.iter (fun x -> interface_used.(x) <- true) bits in
  List.iter (fun (_, bits) -> mark_bits bits) c.reg_next;
  List.iter (fun (_, bits) -> mark_bits bits) c.out_bits;
  (* A gate can be absorbed into its (unique) user's cone when it is
     combinational, drives nothing else and is not read by the interface. *)
  let absorbable i = is_comb c.gates.(i) && (not interface_used.(i)) && fanout.(i) = 1 in
  let grow_cluster root =
    (* Leaves of the cone rooted at [root], grown greedily while <= 4. *)
    let leaves = ref (Gates.fanins c.gates.(root)) in
    let dedup l = List.sort_uniq compare l in
    leaves := dedup !leaves;
    let progress = ref true in
    while !progress do
      progress := false;
      let try_absorb l =
        if absorbable l then begin
          let expanded = dedup (List.filter (fun x -> x <> l) !leaves @ Gates.fanins c.gates.(l)) in
          if List.length expanded <= 4 then begin
            leaves := expanded;
            true
          end
          else false
        end
        else false
      in
      match List.find_opt try_absorb !leaves with
      | Some _ -> progress := true
      | None -> ()
    done;
    !leaves
  in
  let clusters = Array.make n None in
  let cluster i =
    match clusters.(i) with
    | Some l -> l
    | None ->
        let l = grow_cluster i in
        clusters.(i) <- Some l;
        l
  in
  (* Pass 1: decide which combinational gates become LUT roots. *)
  let root = Array.make n false in
  for i = 0 to n - 1 do
    if is_comb c.gates.(i) && (interface_used.(i) || fanout.(i) > 1 || fanout.(i) = 0) then
      root.(i) <- true
  done;
  for i = n - 1 downto 0 do
    if root.(i) && is_comb c.gates.(i) then
      List.iter (fun l -> if is_comb c.gates.(l) then root.(l) <- true) (cluster i)
  done;
  (* Reachability from the interface: unreached gates are dead code. *)
  let live = Array.make n false in
  let rec reach i =
    if not live.(i) then begin
      live.(i) <- true;
      if is_comb c.gates.(i) then
        if root.(i) then List.iter reach (cluster i) else List.iter reach (Gates.fanins c.gates.(i))
    end
  in
  List.iter (fun (_, bits) -> Array.iter reach bits) c.reg_next;
  List.iter (fun (_, bits) -> Array.iter reach bits) c.out_bits;
  (* Pass 2: emit the netlist. *)
  let b = Netlist.builder () in
  let node_of = Array.make n (-1) in
  (* Declared ports first so ordering is stable and independent of use. *)
  let input_ids = Hashtbl.create 64 in
  List.iter
    (fun (name, width) ->
      for k = 0 to width - 1 do
        Hashtbl.replace input_ids (name, k) (Netlist.add_input b (bit_name name k))
      done)
    c.input_bits;
  let reg_ids = Hashtbl.create 64 in
  List.iter
    (fun (name, width, init) ->
      for k = 0 to width - 1 do
        let id = Netlist.add_dff b ~init:((init lsr k) land 1 = 1) in
        Hashtbl.replace reg_ids (name, k) id
      done)
    c.reg_bits;
  let const_cache = Hashtbl.create 4 in
  let map_leaf i =
    match c.gates.(i) with
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
        assert (node_of.(i) >= 0);
        node_of.(i)
  in
  for i = 0 to n - 1 do
    if live.(i) && root.(i) then begin
      let leaves = cluster i in
      let k = List.length leaves in
      assert (k >= 1 && k <= 4);
      let func = Gates.cone_lut4 c.gates ~root:i ~leaves in
      let fanin = Array.of_list (List.map map_leaf leaves) in
      node_of.(i) <- Netlist.add_lut b func fanin
    end
  done;
  (* Interface hookup. *)
  let final i =
    if is_comb c.gates.(i) then begin
      assert (node_of.(i) >= 0);
      node_of.(i)
    end
    else map_leaf i
  in
  List.iter
    (fun (name, bits) ->
      Array.iteri (fun k g -> Netlist.connect_dff b (Hashtbl.find reg_ids (name, k)) ~d:(final g)) bits)
    c.reg_next;
  List.iter
    (fun (name, bits) ->
      Array.iteri (fun k g -> Netlist.set_output b (bit_name name k) (final g)) bits)
    c.out_bits;
  Netlist.finalize b

let run_rtl d = run (Elaborate.run d)
