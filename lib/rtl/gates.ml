type gate =
  | Gconst of bool
  | Ginput of string * int
  | Greg of string * int
  | Gnot of int
  | Gand of int * int
  | Gor of int * int
  | Gxor of int * int
  | Gmux of int * int * int

type circuit = {
  gates : gate array;
  input_bits : (string * int) list;
  reg_bits : (string * int * int) list;
  reg_next : (string * int array) list;
  out_bits : (string * int array) list;
}

type builder = {
  mutable arr : gate array;
  mutable count : int;
  cons : (gate, int) Hashtbl.t;
  mutable inputs : (string * int) list; (* reversed *)
  mutable regs : (string * int * int) list; (* reversed *)
  mutable nexts : (string * int array) list; (* reversed *)
  mutable outs : (string * int array) list; (* reversed *)
}

let builder () =
  {
    arr = Array.make 256 (Gconst false);
    count = 0;
    cons = Hashtbl.create 1024;
    inputs = [];
    regs = [];
    nexts = [];
    outs = [];
  }

let raw_push b g =
  if b.count = Array.length b.arr then begin
    let grown = Array.make (2 * b.count) (Gconst false) in
    Array.blit b.arr 0 grown 0 b.count;
    b.arr <- grown
  end;
  let id = b.count in
  b.arr.(id) <- g;
  b.count <- id + 1;
  id

let intern b g =
  match Hashtbl.find_opt b.cons g with
  | Some id -> id
  | None ->
      let id = raw_push b g in
      Hashtbl.add b.cons g id;
      id

let const b v = intern b (Gconst v)

let input b name bit = intern b (Ginput (name, bit))

let reg b name bit = intern b (Greg (name, bit))

let is_const b id = match b.arr.(id) with Gconst v -> Some v | _ -> None

let gnot b x =
  match b.arr.(x) with
  | Gconst v -> const b (not v)
  | Gnot y -> y
  | _ -> intern b (Gnot x)

let order2 x y = if x <= y then (x, y) else (y, x)

let gand b x y =
  let x, y = order2 x y in
  if x = y then x
  else
    match (is_const b x, is_const b y) with
    | Some false, _ | _, Some false -> const b false
    | Some true, _ -> y
    | _, Some true -> x
    | None, None -> if b.arr.(y) = Gnot x || b.arr.(x) = Gnot y then const b false
        else intern b (Gand (x, y))

let gor b x y =
  let x, y = order2 x y in
  if x = y then x
  else
    match (is_const b x, is_const b y) with
    | Some true, _ | _, Some true -> const b true
    | Some false, _ -> y
    | _, Some false -> x
    | None, None -> if b.arr.(y) = Gnot x || b.arr.(x) = Gnot y then const b true
        else intern b (Gor (x, y))

let gxor b x y =
  let x, y = order2 x y in
  if x = y then const b false
  else
    match (is_const b x, is_const b y) with
    | Some false, _ -> y
    | _, Some false -> x
    | Some true, _ -> gnot b y
    | _, Some true -> gnot b x
    | None, None ->
        if b.arr.(y) = Gnot x || b.arr.(x) = Gnot y then const b true
        else intern b (Gxor (x, y))

let gmux b ~sel ~f0 ~f1 =
  if f0 = f1 then f0
  else
    match is_const b sel with
    | Some false -> f0
    | Some true -> f1
    | None -> (
        match (is_const b f0, is_const b f1) with
        | Some false, Some true -> sel
        | Some true, Some false -> gnot b sel
        | Some false, None -> gand b sel f1
        | Some true, None -> gor b (gnot b sel) f1
        | None, Some false -> gand b (gnot b sel) f0
        | None, Some true -> gor b sel f0
        | _ -> intern b (Gmux (sel, f0, f1)))

let declare_input b name width = b.inputs <- (name, width) :: b.inputs

let declare_reg b name ~width ~init = b.regs <- (name, width, init) :: b.regs

let set_reg_next b name bits = b.nexts <- (name, Array.copy bits) :: b.nexts

let set_output b name bits = b.outs <- (name, Array.copy bits) :: b.outs

let finalize b =
  {
    gates = Array.sub b.arr 0 b.count;
    input_bits = List.rev b.inputs;
    reg_bits = List.rev b.regs;
    reg_next = List.rev b.nexts;
    out_bits = List.rev b.outs;
  }

let gate_count c = Array.length c.gates

let fanins = function
  | Gconst _ | Ginput _ | Greg _ -> []
  | Gnot x -> [ x ]
  | Gand (x, y) | Gor (x, y) | Gxor (x, y) -> [ x; y ]
  | Gmux (s, f0, f1) -> [ s; f0; f1 ]

let eval c ~env ~regs =
  let values = Array.make (Array.length c.gates) false in
  Array.iteri
    (fun i g ->
      values.(i) <-
        (match g with
        | Gconst v -> v
        | Ginput (n, k) -> env (n, k)
        | Greg (n, k) -> regs (n, k)
        | Gnot x -> not values.(x)
        | Gand (x, y) -> values.(x) && values.(y)
        | Gor (x, y) -> values.(x) || values.(y)
        | Gxor (x, y) -> values.(x) <> values.(y)
        | Gmux (s, f0, f1) -> if values.(s) then values.(f1) else values.(f0)))
    c.gates;
  values

(* A cone's truth table over [arity] variables (leaf [j] is variable [j]),
   32 minterms per machine word: word [c] holds minterms [32c .. 32c + 31].
   Variable [j]'s pattern in word [c] is [chunk_var.(j)] for [j < 5], and
   all ones or all zeros by bit [j - 5] of [c] above that.  Each word
   evaluates the cone once, memoised along the way. *)
let chunk_var = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let cone_words gates ~root ~leaves ~arity =
  assert (List.length leaves <= arity && arity <= 8);
  let mask = if arity >= 5 then 0xFFFFFFFF else (1 lsl (1 lsl arity)) - 1 in
  let rec find i = function
    | [] -> -1
    | (g, v) :: rest -> if g = i then v else find i rest
  in
  Array.init
    (max 1 ((1 lsl arity) lsr 5))
    (fun c ->
      let pattern j =
        if j < 5 then chunk_var.(j) land mask else if (c lsr (j - 5)) land 1 = 1 then mask else 0
      in
      let memo = ref (List.mapi (fun j l -> (l, pattern j)) leaves) in
      let rec ev i =
        let v = find i !memo in
        if v >= 0 then v
        else begin
          let v =
            match gates.(i) with
            | Gconst b -> if b then mask else 0
            | Ginput _ | Greg _ ->
                assert false (* every path from them to [root] crosses [leaves] *)
            | Gnot x -> lnot (ev x) land mask
            | Gand (x, y) -> ev x land ev y
            | Gor (x, y) -> ev x lor ev y
            | Gxor (x, y) -> ev x lxor ev y
            | Gmux (s, f0, f1) ->
                let s = ev s in
                (s land ev f1) lor (lnot s land ev f0)
          in
          memo := (i, v) :: !memo;
          v
        end
      in
      ev root)

let cone_function gates ~root ~leaves =
  let arity = List.length leaves in
  let w = cone_words gates ~root ~leaves ~arity in
  Ee_logic.Truthtab.of_fun arity (fun m -> (w.(m lsr 5) lsr (m land 31)) land 1 = 1)

(* Over four variables the unused ones replicate the table, as
   [Lut4.of_truthtab] pads it. *)
let cone_lut4 gates ~root ~leaves =
  Ee_logic.Lut4.of_int (cone_words gates ~root ~leaves ~arity:4).(0)
