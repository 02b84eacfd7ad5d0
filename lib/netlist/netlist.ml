module Lut4 = Ee_logic.Lut4

type node =
  | Input of string
  | Const of bool
  | Lut of { func : Lut4.t; fanin : int array }
  | Dff of { d : int; init : bool }

type t = {
  nodes : node array;
  inputs : (string * int) array;
  outputs : (string * int) array;
  topo : int array; (* combinational evaluation order, all nodes *)
  levels : int array;
  fanouts : int list array;
  input_rank : (int, int) Hashtbl.t; (* node id -> position in inputs *)
}

type builder = {
  mutable bnodes : node array; (* growable; first [count] entries valid *)
  mutable count : int;
  mutable binputs : (string * int) list; (* reversed *)
  mutable boutputs : (string * int) list; (* reversed *)
  pending_dffs : (int, unit) Hashtbl.t;
}

let builder () =
  {
    bnodes = Array.make 64 (Const false);
    count = 0;
    binputs = [];
    boutputs = [];
    pending_dffs = Hashtbl.create 16;
  }

let push b n =
  if b.count = Array.length b.bnodes then begin
    let grown = Array.make (2 * b.count) (Const false) in
    Array.blit b.bnodes 0 grown 0 b.count;
    b.bnodes <- grown
  end;
  let id = b.count in
  b.bnodes.(id) <- n;
  b.count <- id + 1;
  id

let add_input b name =
  let id = push b (Input name) in
  b.binputs <- (name, id) :: b.binputs;
  id

let add_const b v = push b (Const v)

let check_ref b what i =
  if i < 0 || i >= b.count then
    invalid_arg (Printf.sprintf "Netlist.%s: fanin %d out of range" what i)

let add_lut b func fanin =
  let n = Array.length fanin in
  if n < 1 || n > 4 then invalid_arg "Netlist.add_lut: fanin length must be 1..4";
  Array.iter (check_ref b "add_lut") fanin;
  if Lut4.support func land lnot (Ee_util.Bits.mask n) <> 0 then
    invalid_arg "Netlist.add_lut: function depends on unconnected variables";
  push b (Lut { func; fanin = Array.copy fanin })

let add_dff b ~init =
  let id = push b (Dff { d = -1; init }) in
  Hashtbl.replace b.pending_dffs id ();
  id

let connect_dff b id ~d =
  check_ref b "connect_dff" d;
  if not (Hashtbl.mem b.pending_dffs id) then
    invalid_arg "Netlist.connect_dff: not an unconnected register";
  (match b.bnodes.(id) with
  | Dff { init; _ } -> b.bnodes.(id) <- Dff { d; init }
  | _ -> invalid_arg "Netlist.connect_dff: not a register");
  Hashtbl.remove b.pending_dffs id

let set_output b name id =
  check_ref b "set_output" id;
  b.boutputs <- (name, id) :: b.boutputs

let comb_fanins = function
  | Input _ | Const _ | Dff _ -> [||]
  | Lut { fanin; _ } -> fanin

let compute_topo nodes =
  let n = Array.length nodes in
  let state = Array.make n 0 in
  (* 0 = unvisited, 1 = in progress, 2 = done *)
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 -> invalid_arg "Netlist.finalize: combinational cycle detected"
    | _ ->
        state.(i) <- 1;
        Array.iter visit (comb_fanins nodes.(i));
        state.(i) <- 2;
        order := i :: !order
  in
  for i = 0 to n - 1 do
    visit i
  done;
  Array.of_list (List.rev !order)

let compute_levels nodes topo =
  let levels = Array.make (Array.length nodes) 0 in
  Array.iter
    (fun i ->
      match nodes.(i) with
      | Input _ | Const _ | Dff _ -> levels.(i) <- 0
      | Lut { fanin; _ } ->
          levels.(i) <- 1 + Array.fold_left (fun acc f -> max acc levels.(f)) 0 fanin)
    topo;
  levels

let compute_fanouts nodes =
  let fanouts = Array.make (Array.length nodes) [] in
  Array.iteri
    (fun i n ->
      let feed src = fanouts.(src) <- i :: fanouts.(src) in
      match n with
      | Lut { fanin; _ } -> Array.iter feed fanin
      | Dff { d; _ } -> feed d
      | Input _ | Const _ -> ())
    nodes;
  Array.map List.rev fanouts

let finalize b =
  if Hashtbl.length b.pending_dffs <> 0 then
    invalid_arg "Netlist.finalize: register with unconnected data input";
  let nodes = Array.sub b.bnodes 0 b.count in
  Array.iter
    (function
      | Dff { d; _ } when d < 0 || d >= Array.length nodes ->
          invalid_arg "Netlist.finalize: bad register data input"
      | _ -> ())
    nodes;
  let topo = compute_topo nodes in
  let levels = compute_levels nodes topo in
  let inputs = Array.of_list (List.rev b.binputs) in
  let input_rank = Hashtbl.create 16 in
  Array.iteri (fun k (_, id) -> Hashtbl.replace input_rank id k) inputs;
  {
    nodes;
    inputs;
    outputs = Array.of_list (List.rev b.boutputs);
    topo;
    levels;
    fanouts = compute_fanouts nodes;
    input_rank;
  }

let node_count t = Array.length t.nodes

let node t i = t.nodes.(i)

let inputs t = t.inputs

let outputs t = t.outputs

let ids_matching t pred =
  let out = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if pred t.nodes.(i) then out := i :: !out
  done;
  !out

let lut_ids t = ids_matching t (function Lut _ -> true | _ -> false)

let dff_ids t = ids_matching t (function Dff _ -> true | _ -> false)

let lut_count t = List.length (lut_ids t)

let dff_count t = List.length (dff_ids t)

let fanouts t = t.fanouts

let topo_order t = Array.to_list t.topo

let level t i = t.levels.(i)

let depth t = Array.fold_left max 0 t.levels

type state = bool array (* indexed by node id; meaningful for Dff nodes *)

let initial_state t =
  Array.map (function Dff { init; _ } -> init | _ -> false) t.nodes

let eval_all t (st : state) input_values =
  let values = Array.make (Array.length t.nodes) false in
  let input_rank = t.input_rank in
  if Array.length input_values <> Array.length t.inputs then
    invalid_arg "Netlist.step: wrong number of input values";
  Array.iter
    (fun i ->
      values.(i) <-
        (match t.nodes.(i) with
        | Input _ -> input_values.(Hashtbl.find input_rank i)
        | Const v -> v
        | Dff _ -> st.(i)
        | Lut { func; fanin } ->
            let v = Array.make 4 false in
            Array.iteri (fun k f -> v.(k) <- values.(f)) fanin;
            Lut4.eval func v))
    t.topo;
  values

let step t st input_values =
  let values = eval_all t st input_values in
  let outs = Array.map (fun (_, id) -> values.(id)) t.outputs in
  let st' =
    Array.mapi
      (fun i n -> match n with Dff { d; _ } -> values.(d) | _ -> st.(i))
      t.nodes
  in
  (outs, st')

let agrees_random t ~vectors ~seed wave =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length t.inputs in
  let rec go k st =
    k >= vectors
    ||
    let vector = Ee_util.Prng.bool_vector rng width in
    let outputs = wave vector in
    let expected, st = step t st vector in
    outputs = expected && go (k + 1) st
  in
  go 0 (initial_state t)

let eval_node t st input_values i = (eval_all t st input_values).(i)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph netlist {\n  rankdir=LR;\n";
  Array.iteri
    (fun i n ->
      let label, shape =
        match n with
        | Input name -> (Printf.sprintf "%s" name, "invtriangle")
        | Const v -> ((if v then "1" else "0"), "plaintext")
        | Lut { func; _ } -> (Printf.sprintf "n%d\\n%s" i (Lut4.to_string func), "box")
        | Dff _ -> (Printf.sprintf "dff%d" i, "box3d")
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" i label shape))
    t.nodes;
  Array.iteri
    (fun i n ->
      let edge src = Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" src i) in
      match n with
      | Lut { fanin; _ } -> Array.iter edge fanin
      | Dff { d; _ } -> edge d
      | Input _ | Const _ -> ())
    t.nodes;
  Array.iter
    (fun (name, id) ->
      Buffer.add_string buf
        (Printf.sprintf "  out_%s [label=\"%s\", shape=triangle];\n  n%d -> out_%s;\n" name
           name id name))
    t.outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let stats_string t =
  Printf.sprintf "nodes=%d inputs=%d outputs=%d luts=%d dffs=%d depth=%d"
    (node_count t) (Array.length t.inputs) (Array.length t.outputs) (lut_count t)
    (dff_count t) (depth t)
