module Netlist = Ee_netlist.Netlist
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Cube = Ee_logic.Cube

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let escape = Ee_export.Blif.escape_name

let unescape = Ee_export.Blif.unescape_name

(* -------------------------------------------------------------------- *)
(* Reading                                                              *)
(* -------------------------------------------------------------------- *)

type cursor = { text : string; mutable pos : int; mutable line : int }

let eof c = c.pos >= String.length c.text

let read_line c =
  if eof c then fail c.line "unexpected end of file"
  else begin
    let n = String.length c.text in
    let stop = match String.index_from_opt c.text c.pos '\n' with Some i -> i | None -> n in
    let s = String.sub c.text c.pos (stop - c.pos) in
    c.pos <- min n (stop + 1);
    c.line <- c.line + 1;
    (* Tolerate CRLF. *)
    if String.length s > 0 && s.[String.length s - 1] = '\r' then
      String.sub s 0 (String.length s - 1)
    else s
  end

let read_byte c =
  if eof c then fail 0 "unexpected end of binary AND section"
  else begin
    let b = Char.code c.text.[c.pos] in
    c.pos <- c.pos + 1;
    b
  end

(* AIGER binary deltas: little-endian 7-bit groups, high bit = continue. *)
let read_varint c =
  let rec go shift acc =
    let b = read_byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let ints_of_line c s =
  List.map
    (fun w ->
      match int_of_string_opt w with
      | Some v when v >= 0 -> v
      | _ -> fail c.line "expected an unsigned integer, got %S" w)
    (List.filter (fun w -> w <> "") (String.split_on_char ' ' s))

type latch = { next : int; init : bool }

let of_string text =
  let c = { text; pos = 0; line = 0 } in
  let header = read_line c in
  let magic, nums =
    match String.split_on_char ' ' header |> List.filter (fun w -> w <> "") with
    | magic :: rest when magic = "aag" || magic = "aig" ->
        (magic, List.map (fun w ->
             match int_of_string_opt w with
             | Some v when v >= 0 -> v
             | _ -> fail c.line "bad header number %S" w)
            rest)
    | _ -> fail c.line "not an AIGER file (expected 'aag' or 'aig' magic)"
  in
  let m, i, l, o, a =
    match nums with
    | [ m; i; l; o; a ] -> (m, i, l, o, a)
    | m :: i :: l :: o :: a :: rest ->
        if List.exists (fun x -> x <> 0) rest then
          fail c.line "unsupported AIGER extension sections (B/C/J/F)"
        else (m, i, l, o, a)
    | _ -> fail c.line "AIGER header needs M I L O A"
  in
  if m < i + l + a then fail c.line "inconsistent header: M < I + L + A";
  let binary = magic = "aig" in
  let check_lit line lit =
    if lit < 0 || lit > (2 * m) + 1 then fail line "literal %d out of range" lit;
    lit
  in
  (* kind.(v): 0 unset, 1 input, 2 latch, 3 and *)
  let kind = Array.make (m + 1) 0 in
  let index = Array.make (m + 1) 0 in
  kind.(0) <- -1;
  let declare line v k idx =
    if v = 0 then fail line "variable 0 is the constant";
    if kind.(v) <> 0 then fail line "variable %d defined twice" v;
    kind.(v) <- k;
    index.(v) <- idx
  in
  (* Inputs *)
  let input_lits =
    Array.init i (fun idx ->
        if binary then begin
          let lit = 2 * (idx + 1) in
          declare c.line (lit / 2) 1 idx;
          lit
        end
        else
          match ints_of_line c (read_line c) with
          | [ lit ] ->
              let lit = check_lit c.line lit in
              if lit land 1 = 1 then fail c.line "input literal %d is negated" lit;
              declare c.line (lit / 2) 1 idx;
              lit
          | _ -> fail c.line "input line needs one literal")
  in
  ignore input_lits;
  (* Latches *)
  let latch_lits = Array.make l 0 in
  let latches =
    Array.init l (fun idx ->
        let nums = ints_of_line c (read_line c) in
        let lit, rest =
          if binary then
            let lit = 2 * (i + idx + 1) in
            (lit, nums)
          else
            match nums with
            | lit :: rest ->
                let lit = check_lit c.line lit in
                if lit land 1 = 1 then fail c.line "latch literal %d is negated" lit;
                (lit, rest)
            | [] -> fail c.line "latch line needs a literal"
        in
        declare c.line (lit / 2) 2 idx;
        latch_lits.(idx) <- lit;
        match rest with
        | [ next ] -> { next = check_lit c.line next; init = false }
        | [ next; init ] ->
            let next = check_lit c.line next in
            let init =
              if init = 0 then false
              else if init = 1 then true
              else if init = lit then false (* uninitialized: reset to 0 *)
              else fail c.line "bad latch reset value %d" init
            in
            { next; init }
        | _ -> fail c.line "latch line needs next [init]")
  in
  (* Outputs *)
  let outputs =
    Array.init o (fun _ ->
        match ints_of_line c (read_line c) with
        | [ lit ] -> check_lit c.line lit
        | _ -> fail c.line "output line needs one literal")
  in
  (* ANDs *)
  let ands = Array.make a (0, 0) in
  if binary then
    for idx = 0 to a - 1 do
      let lhs = 2 * (i + l + idx + 1) in
      if lhs / 2 > m then fail 0 "AND variable %d out of range" (lhs / 2);
      declare c.line (lhs / 2) 3 idx;
      let delta0 = read_varint c in
      let rhs0 = lhs - delta0 in
      let delta1 = read_varint c in
      let rhs1 = rhs0 - delta1 in
      if rhs0 < 0 || rhs1 < 0 then fail 0 "bad delta in binary AND section";
      ands.(idx) <- (rhs0, rhs1)
    done
  else
    for idx = 0 to a - 1 do
      match ints_of_line c (read_line c) with
      | [ lhs; rhs0; rhs1 ] ->
          let lhs = check_lit c.line lhs in
          if lhs land 1 = 1 then fail c.line "AND literal %d is negated" lhs;
          declare c.line (lhs / 2) 3 idx;
          ands.(idx) <- (check_lit c.line rhs0, check_lit c.line rhs1)
      | _ -> fail c.line "AND line needs lhs rhs0 rhs1"
    done;
  (* Symbol table + comments *)
  let input_names = Array.init i (fun k -> Printf.sprintf "i%d" k) in
  let latch_names = Array.make l "" in
  let output_names = Array.init o (fun k -> Printf.sprintf "o%d" k) in
  (try
     let stop = ref false in
     while (not !stop) && not (eof c) do
       let line = read_line c in
       if line = "c" then stop := true
       else if line <> "" then begin
         match String.index_opt line ' ' with
         | Some sp when sp > 1 -> (
             let tag = line.[0] in
             let idx = int_of_string_opt (String.sub line 1 (sp - 1)) in
             let name = unescape (String.sub line (sp + 1) (String.length line - sp - 1)) in
             match (tag, idx) with
             | 'i', Some k when k >= 0 && k < i -> input_names.(k) <- name
             | 'l', Some k when k >= 0 && k < l -> latch_names.(k) <- name
             | 'o', Some k when k >= 0 && k < o -> output_names.(k) <- name
             | _ -> fail c.line "bad symbol entry %S" line)
         | _ -> fail c.line "bad symbol entry %S" line
       end
     done
   with Parse_error _ as e -> raise e);
  (* Uniquify port names (duplicate symbols would make ports ambiguous). *)
  let uniquify names =
    let used = Hashtbl.create 16 in
    Array.map
      (fun n ->
        let n = if n = "" then "_" else n in
        match Hashtbl.find_opt used n with
        | None ->
            Hashtbl.replace used n 0;
            n
        | Some k ->
            Hashtbl.replace used n (k + 1);
            Printf.sprintf "%s#%d" n (k + 1))
      names
  in
  let input_names = uniquify input_names in
  let output_names = uniquify output_names in
  (* Build the netlist. *)
  let b = Netlist.builder () in
  let const_cache = Hashtbl.create 2 in
  let const v =
    match Hashtbl.find_opt const_cache v with
    | Some id -> id
    | None ->
        let id = Netlist.add_const b v in
        Hashtbl.replace const_cache v id;
        id
  in
  let input_ids = Array.map (fun n -> Netlist.add_input b n) input_names in
  let latch_ids = Array.map (fun (lt : latch) -> Netlist.add_dff b ~init:lt.init) latches in
  let node_of_var = Array.make (m + 1) (-1) in
  let inverter = Hashtbl.create 64 in
  let visiting = Array.make (m + 1) false in
  let rec var_node v =
    if node_of_var.(v) >= 0 then node_of_var.(v)
    else begin
      if visiting.(v) then fail 0 "combinational cycle through variable %d" v;
      visiting.(v) <- true;
      let id =
        match kind.(v) with
        | 1 -> input_ids.(index.(v))
        | 2 -> latch_ids.(index.(v))
        | 3 ->
            let rhs0, rhs1 = ands.(index.(v)) in
            and_node rhs0 rhs1
        | _ -> fail 0 "undefined variable %d" v
      in
      visiting.(v) <- false;
      node_of_var.(v) <- id;
      id
    end
  and lit_node lit =
    let v = lit / 2 in
    if v = 0 then const (lit land 1 = 1)
    else if lit land 1 = 0 then var_node v
    else begin
      let base = var_node v in
      match Hashtbl.find_opt inverter base with
      | Some id -> id
      | None ->
          let id =
            Netlist.add_lut b (Lut4.of_truthtab (Tt.lognot (Tt.var 1 0))) [| base |]
          in
          Hashtbl.replace inverter base id;
          id
    end
  and and_node rhs0 rhs1 =
    let v0 = rhs0 / 2 and v1 = rhs1 / 2 in
    if rhs0 = 0 || rhs1 = 0 then const false
    else if rhs0 = 1 then lit_node rhs1
    else if rhs1 = 1 then lit_node rhs0
    else if v0 = v1 then
      if rhs0 = rhs1 then lit_node rhs0 else const false
    else begin
      let inv0 = rhs0 land 1 = 1 and inv1 = rhs1 land 1 = 1 in
      let tt =
        Tt.of_fun 2 (fun mt ->
            (mt land 1 = 1) <> inv0 && ((mt lsr 1) land 1 = 1) <> inv1)
      in
      Netlist.add_lut b (Lut4.of_truthtab tt) [| var_node v0; var_node v1 |]
    end
  in
  Array.iteri
    (fun idx (lt : latch) -> Netlist.connect_dff b latch_ids.(idx) ~d:(lit_node lt.next))
    latches;
  Array.iteri
    (fun idx lit -> Netlist.set_output b output_names.(idx) (lit_node lit))
    outputs;
  Netlist.finalize b

let parse text =
  match of_string text with
  | nl -> Ok nl
  | exception Parse_error (line, msg) ->
      Error
        (if line = 0 then Printf.sprintf "AIGER: %s" msg
         else Printf.sprintf "AIGER line %d: %s" line msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "AIGER: %s" msg)

(* -------------------------------------------------------------------- *)
(* Writing                                                              *)
(* -------------------------------------------------------------------- *)

type aig = {
  ninputs : int;
  nlatches : int;
  and_list : (int * int) list;  (** reversed (lhs ascending when re-reversed) *)
  nands : int;
  a_latches : (int * bool) array;  (** (next literal, init) per latch *)
  a_outputs : (string * int) array;
  a_input_names : string array;
}

(* Lower a netlist to an AND-inverter graph with structural hashing. *)
let aig_of_netlist nl =
  let inputs = Netlist.inputs nl in
  let dffs = Array.of_list (Netlist.dff_ids nl) in
  let ninputs = Array.length inputs and nlatches = Array.length dffs in
  let var_of_node = Hashtbl.create 256 in
  Array.iteri (fun k (_, id) -> Hashtbl.replace var_of_node id (k + 1)) inputs;
  Array.iteri (fun k id -> Hashtbl.replace var_of_node id (ninputs + k + 1)) dffs;
  let nands = ref 0 in
  let ands = ref [] in
  let hashcons = Hashtbl.create 256 in
  let and_lit a0 a1 =
    if a0 = 0 || a1 = 0 then 0
    else if a0 = 1 then a1
    else if a1 = 1 then a0
    else if a0 = a1 then a0
    else if a0 = a1 lxor 1 then 0
    else begin
      let rhs0 = max a0 a1 and rhs1 = min a0 a1 in
      match Hashtbl.find_opt hashcons (rhs0, rhs1) with
      | Some lit -> lit
      | None ->
          incr nands;
          let v = ninputs + nlatches + !nands in
          ands := (rhs0, rhs1) :: !ands;
          let lit = 2 * v in
          Hashtbl.replace hashcons (rhs0, rhs1) lit;
          lit
    end
  in
  let not_lit a = a lxor 1 in
  let or_lit a0 a1 = not_lit (and_lit (not_lit a0) (not_lit a1)) in
  let lit_of_tt tt fanin_lits =
    let cover_lit cubes =
      List.fold_left
        (fun acc cube ->
          let care = Cube.care cube and value = Cube.value cube in
          let cube_lit = ref 1 in
          Array.iteri
            (fun j flit ->
              if (care lsr j) land 1 = 1 then
                cube_lit :=
                  and_lit !cube_lit
                    (if (value lsr j) land 1 = 1 then flit else not_lit flit))
            fanin_lits;
          or_lit acc !cube_lit)
        0 cubes
    in
    match Ee_logic.Isop.choose tt with
    | Ee_logic.Isop.Const v -> if v then 1 else 0
    | Ee_logic.Isop.On on -> cover_lit on
    | Ee_logic.Isop.Off off -> not_lit (cover_lit off)
  in
  let lit_of_node = Hashtbl.create 256 in
  List.iter
    (fun id ->
      let lit =
        match Netlist.node nl id with
        | Netlist.Input _ | Netlist.Dff _ -> 2 * Hashtbl.find var_of_node id
        | Netlist.Const v -> if v then 1 else 0
        | Netlist.Lut { func; fanin } ->
            let k = Array.length fanin in
            let tt =
              Tt.of_fun k (fun mt -> Lut4.eval_bits func mt)
            in
            lit_of_tt tt (Array.map (Hashtbl.find lit_of_node) fanin)
      in
      Hashtbl.replace lit_of_node id lit)
    (Netlist.topo_order nl);
  let a_latches =
    Array.map
      (fun id ->
        match Netlist.node nl id with
        | Netlist.Dff { d; init } -> (Hashtbl.find lit_of_node d, init)
        | _ -> assert false)
      dffs
  in
  let a_outputs =
    Array.map (fun (name, id) -> (name, Hashtbl.find lit_of_node id)) (Netlist.outputs nl)
  in
  {
    ninputs;
    nlatches;
    and_list = !ands;
    nands = !nands;
    a_latches;
    a_outputs;
    a_input_names = Array.map fst inputs;
  }

let symbols buf g =
  Array.iteri
    (fun k n -> Buffer.add_string buf (Printf.sprintf "i%d %s\n" k (escape n)))
    g.a_input_names;
  Array.iteri
    (fun k (n, _) -> Buffer.add_string buf (Printf.sprintf "o%d %s\n" k (escape n)))
    g.a_outputs;
  Buffer.add_string buf "c\nearly_eval export\n"

let to_ascii nl =
  let g = aig_of_netlist nl in
  let m = g.ninputs + g.nlatches + g.nands in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d %d %d %d\n" m g.ninputs g.nlatches
       (Array.length g.a_outputs) g.nands);
  for k = 1 to g.ninputs do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * k))
  done;
  Array.iteri
    (fun k (next, init) ->
      let lit = 2 * (g.ninputs + k + 1) in
      if init then Buffer.add_string buf (Printf.sprintf "%d %d 1\n" lit next)
      else Buffer.add_string buf (Printf.sprintf "%d %d\n" lit next))
    g.a_latches;
  Array.iter (fun (_, lit) -> Buffer.add_string buf (Printf.sprintf "%d\n" lit)) g.a_outputs;
  List.iteri
    (fun k (rhs0, rhs1) ->
      let lhs = 2 * (g.ninputs + g.nlatches + k + 1) in
      Buffer.add_string buf (Printf.sprintf "%d %d %d\n" lhs rhs0 rhs1))
    (List.rev g.and_list);
  symbols buf g;
  Buffer.contents buf

let write_varint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v <> 0 then Buffer.add_char buf (Char.chr (b lor 0x80))
    else begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
  done

let to_binary nl =
  let g = aig_of_netlist nl in
  let m = g.ninputs + g.nlatches + g.nands in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d %d %d %d\n" m g.ninputs g.nlatches
       (Array.length g.a_outputs) g.nands);
  Array.iter
    (fun (next, init) ->
      if init then Buffer.add_string buf (Printf.sprintf "%d 1\n" next)
      else Buffer.add_string buf (Printf.sprintf "%d\n" next))
    g.a_latches;
  Array.iter (fun (_, lit) -> Buffer.add_string buf (Printf.sprintf "%d\n" lit)) g.a_outputs;
  List.iteri
    (fun k (rhs0, rhs1) ->
      let lhs = 2 * (g.ninputs + g.nlatches + k + 1) in
      write_varint buf (lhs - rhs0);
      write_varint buf (rhs0 - rhs1))
    (List.rev g.and_list);
  symbols buf g;
  Buffer.contents buf
