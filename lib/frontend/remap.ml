module Netlist = Ee_netlist.Netlist
module Gates = Ee_rtl.Gates
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Cube = Ee_logic.Cube

let to_gates nl =
  let b = Gates.builder () in
  let dffs = Array.of_list (Netlist.dff_ids nl) in
  let reg_name k = Printf.sprintf "r%d" k in
  Array.iteri
    (fun k id ->
      match Netlist.node nl id with
      | Netlist.Dff { init; _ } ->
          Gates.declare_reg b (reg_name k) ~width:1 ~init:(if init then 1 else 0)
      | _ -> assert false)
    dffs;
  let reg_index = Hashtbl.create 16 in
  Array.iteri (fun k id -> Hashtbl.replace reg_index id k) dffs;
  let gate_of = Hashtbl.create 256 in
  (* The cover choice of each distinct (arity, function) of this netlist,
     computed once. *)
  let choices = Hashtbl.create 16 in
  let choice func k =
    let key = (Lut4.to_int func lsl 3) lor k in
    match Hashtbl.find_opt choices key with
    | Some c -> c
    | None ->
        let c = Ee_logic.Isop.choose (Tt.of_fun k (fun m -> Lut4.eval_bits func m)) in
        Hashtbl.add choices key c;
        c
  in
  let lut_gate func fanin_gates =
    let k = Array.length fanin_gates in
    let cube_gate cube =
      let care = Cube.care cube and value = Cube.value cube in
      let g = ref None in
      for j = 0 to k - 1 do
        if (care lsr j) land 1 = 1 then begin
          let lit =
            if (value lsr j) land 1 = 1 then fanin_gates.(j) else Gates.gnot b fanin_gates.(j)
          in
          g := Some (match !g with None -> lit | Some acc -> Gates.gand b acc lit)
        end
      done;
      match !g with None -> Gates.const b true | Some g -> g
    in
    let cover_gate cubes =
      List.fold_left
        (fun acc cube ->
          match acc with
          | None -> Some (cube_gate cube)
          | Some acc -> Some (Gates.gor b acc (cube_gate cube)))
        None cubes
      |> Option.get
    in
    match choice func k with
    | Ee_logic.Isop.Const v -> Gates.const b v
    | Ee_logic.Isop.On on -> cover_gate on
    | Ee_logic.Isop.Off off -> Gates.gnot b (cover_gate off)
  in
  List.iter
    (fun id ->
      let g =
        match Netlist.node nl id with
        | Netlist.Input name -> Gates.input b name 0
        | Netlist.Const v -> Gates.const b v
        | Netlist.Dff _ -> Gates.reg b (reg_name (Hashtbl.find reg_index id)) 0
        | Netlist.Lut { func; fanin } ->
            lut_gate func (Array.map (Hashtbl.find gate_of) fanin)
      in
      Hashtbl.replace gate_of id g)
    (Netlist.topo_order nl);
  Array.iter (fun (name, _) -> Gates.declare_input b name 1) (Netlist.inputs nl);
  Array.iteri
    (fun k id ->
      match Netlist.node nl id with
      | Netlist.Dff { d; _ } ->
          Gates.set_reg_next b (reg_name k) [| Hashtbl.find gate_of d |]
      | _ -> assert false)
    dffs;
  Array.iter
    (fun (name, id) -> Gates.set_output b name [| Hashtbl.find gate_of id |])
    (Netlist.outputs nl);
  Gates.finalize b

let run ?(mode = Ee_rtl.Cutmap.Delay) ?cuts_per_node nl =
  Ee_rtl.Cutmap.run ~mode ?cuts_per_node ~flat_ports:true (to_gates nl)
