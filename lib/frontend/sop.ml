module Netlist = Ee_netlist.Netlist
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Cube = Ee_logic.Cube

let max_vars = 60

(* AND of up to four literals (node id, positive?) as one LUT4.  A single
   positive literal is the node itself. *)
let and_chunk b lits =
  match lits with
  | [ (node, true) ] -> node
  | _ ->
      let k = List.length lits in
      let polarity = Array.of_list (List.map snd lits) in
      let tt =
        Tt.of_fun k (fun m ->
            let ok = ref true in
            for j = 0 to k - 1 do
              if ((m lsr j) land 1 = 1) <> polarity.(j) then ok := false
            done;
            !ok)
      in
      Netlist.add_lut b (Lut4.of_truthtab tt) (Array.of_list (List.map fst lits))

(* OR of up to four nodes as one LUT4, optionally negated (NOR). *)
let or_chunk b ~invert nodes =
  match nodes with
  | [ node ] when not invert -> node
  | _ ->
      let k = List.length nodes in
      let tt = Tt.of_fun k (fun m -> (m land ((1 lsl k) - 1) <> 0) <> invert) in
      Netlist.add_lut b (Lut4.of_truthtab tt) (Array.of_list nodes)

let rec chunks4 = function
  | a :: b :: c :: d :: (_ :: _ as rest) -> [ a; b; c; d ] :: chunks4 rest
  | [] -> []
  | l -> [ l ]

(* Balanced 4-ary OR reduction; [invert] folds into the topmost LUT. *)
let rec or_tree b ~invert nodes =
  match chunks4 nodes with
  | [ only ] -> or_chunk b ~invert only
  | groups -> or_tree b ~invert (List.map (or_chunk b ~invert:false) groups)

(* One cube as a balanced 4-ary AND tree with literal polarities folded
   into the leaf LUTs.  [None] for the universe cube (constant true). *)
let cube_node b ~nvars ~fanin cube =
  let care = Cube.care cube and value = Cube.value cube in
  let lits = ref [] in
  for j = nvars - 1 downto 0 do
    if (care lsr j) land 1 = 1 then
      lits := (fanin.(j), (value lsr j) land 1 = 1) :: !lits
  done;
  match !lits with
  | [] -> None
  | lits ->
      let rec and_tree nodes =
        match chunks4 nodes with
        | [ [ only ] ] -> only
        | [ only ] -> and_chunk b (List.map (fun n -> (n, true)) only)
        | groups ->
            and_tree (List.map (fun g -> and_chunk b (List.map (fun n -> (n, true)) g)) groups)
      in
      let first = List.map (and_chunk b) (chunks4 lits) in
      Some (and_tree first)

let of_cover b ~nvars ~fanin ~complement cubes =
  if nvars > max_vars then
    invalid_arg (Printf.sprintf "Sop.of_cover: %d variables exceeds %d" nvars max_vars);
  if Array.length fanin < nvars then invalid_arg "Sop.of_cover: fanin too short";
  List.iter
    (fun c ->
      if nvars < 63 && Cube.care c lsr nvars <> 0 then
        invalid_arg "Sop.of_cover: cube mentions a variable outside nvars")
    cubes;
  if cubes = [] then Netlist.add_const b complement
  else begin
    let nodes = List.map (cube_node b ~nvars ~fanin) cubes in
    if List.exists Option.is_none nodes then
      (* A universe cube makes the OR constant true. *)
      Netlist.add_const b (not complement)
    else or_tree b ~invert:complement (List.map Option.get nodes)
  end

let of_truthtab b tt fanin =
  let k = Tt.arity tt in
  match Tt.is_const tt with
  | None when k <= 4 -> Netlist.add_lut b (Lut4.of_truthtab tt) (Array.sub fanin 0 k)
  | _ -> (
      match Ee_logic.Isop.choose tt with
      | Ee_logic.Isop.Const v -> Netlist.add_const b v
      | Ee_logic.Isop.On on -> of_cover b ~nvars:k ~fanin ~complement:false on
      | Ee_logic.Isop.Off off -> of_cover b ~nvars:k ~fanin ~complement:true off)
