module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4
module Tt = Ee_logic.Truthtab

(* -------------------------------------------------------------------- *)
(* Signal-name escaping                                                 *)
(* -------------------------------------------------------------------- *)

(* BLIF tokenizes on whitespace and treats a leading '.' as a directive, so
   a signal name containing a space (or one that *is* a keyword, like
   ".names") would not survive a round trip.  We percent-encode the
   offending bytes deterministically: '%' itself is always encoded, so
   [unescape_name (escape_name s) = s] for every string. *)

let safe_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '_' | '[' | ']' | '.' | '$' | '/' | ':' | '<' | '>' | '-' | '+' | ',' | '('
  | ')' | '!' | '=' | '@' | '~' | '^' | '{' | '}' | '|' | '?' | '*' | '&' | ';'
  | '\'' ->
      true
  | _ -> false (* space, tab, '#', '%', '\\', '"', controls, non-ASCII *)

let escape_name s =
  let needs =
    s = ""
    || (String.length s > 0 && s.[0] = '.')
    || String.exists (fun c -> not (safe_char c)) s
  in
  if not needs then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iteri
      (fun i c ->
        if safe_char c && not (i = 0 && c = '.') then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    (* An empty name must still be a token. *)
    if s = "" then Buffer.add_string buf "%";
    Buffer.contents buf
  end

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape_name s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '%' when !i + 2 < n -> (
          match (hex_digit s.[!i + 1], hex_digit s.[!i + 2]) with
          | Some h, Some l ->
              Buffer.add_char buf (Char.chr ((h * 16) + l));
              i := !i + 2
          | _ -> Buffer.add_char buf '%')
      | '%' when n = 1 -> () (* the empty-name marker *)
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf
  end

(* -------------------------------------------------------------------- *)
(* Export                                                               *)
(* -------------------------------------------------------------------- *)

(* Internal nodes are named [<prefix><id>].  The prefix is ["n"] unless
   some port is named ["n<digits>"] (the readers unescape every token, so
   escaping the port could not keep the two apart); then it is the
   shortest run of ['n']s no port name extends by digits alone. *)
let node_prefix nl =
  let digits_after p s =
    let k = String.length p and n = String.length s in
    n > k
    && String.starts_with ~prefix:p s
    && String.for_all (function '0' .. '9' -> true | _ -> false) (String.sub s k (n - k))
  in
  let ports = Array.append (Netlist.inputs nl) (Netlist.outputs nl) in
  let rec go p =
    if Array.exists (fun (name, _) -> digits_after p name) ports then go (p ^ "n") else p
  in
  go "n"

let node_name nl prefix i =
  match Netlist.node nl i with
  | Netlist.Input name -> escape_name name
  | _ -> prefix ^ string_of_int i

(* Cube line with the first column corresponding to fanin 0 (BLIF column
   order follows the .names input list). *)
let cube_line nvars cube value =
  let chars =
    String.init nvars (fun j ->
        if (Ee_logic.Cube.care cube lsr j) land 1 = 0 then '-'
        else if (Ee_logic.Cube.value cube lsr j) land 1 = 1 then '1'
        else '0')
  in
  Printf.sprintf "%s %c" chars (if value then '1' else '0')

let to_blif ?(model = "netlist") nl =
  let buf = Buffer.create 4096 in
  let node_name = node_name nl (node_prefix nl) in
  (* The [.names] body of each distinct (arity, function), rendered once.
     An empty cube list means constant 0 in BLIF, so a constant 1 is the
     universe cube and the OFF form is used only when it is non-empty
     (never for a constant). *)
  let bodies = Hashtbl.create 16 in
  let cover_lines func k =
    let key = (Lut4.to_int func lsl 3) lor k in
    match Hashtbl.find_opt bodies key with
    | Some lines -> lines
    | None ->
        let cubes, value =
          match Ee_logic.Isop.choose (Tt.of_fun k (fun m -> Lut4.eval_bits func m)) with
          | Ee_logic.Isop.Const v -> ((if v then [ Ee_logic.Cube.universe ] else []), true)
          | Ee_logic.Isop.On on -> (on, true)
          | Ee_logic.Isop.Off off -> (off, false)
        in
        let lines = String.concat "" (List.map (fun c -> cube_line k c value ^ "\n") cubes) in
        Hashtbl.add bodies key lines;
        lines
  in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" model);
  let port_names f =
    String.concat " " (Array.to_list (Array.map (fun (n, _) -> escape_name n) (f nl)))
  in
  Buffer.add_string buf (Printf.sprintf ".inputs %s\n" (port_names Netlist.inputs));
  Buffer.add_string buf (Printf.sprintf ".outputs %s\n" (port_names Netlist.outputs));
  for i = 0 to Netlist.node_count nl - 1 do
    match Netlist.node nl i with
    | Netlist.Input _ -> ()
    | Netlist.Const v ->
        Buffer.add_string buf (Printf.sprintf ".names %s\n" (node_name i));
        if v then Buffer.add_string buf "1\n"
    | Netlist.Dff { d; init } ->
        Buffer.add_string buf
          (Printf.sprintf ".latch %s %s re NIL %d\n" (node_name d) (node_name i)
             (if init then 1 else 0))
    | Netlist.Lut { func; fanin } ->
        let k = Array.length fanin in
        let names = String.concat " " (Array.to_list (Array.map node_name fanin)) in
        Buffer.add_string buf (Printf.sprintf ".names %s %s\n" names (node_name i));
        Buffer.add_string buf (cover_lines func k)
  done;
  (* Output aliases where the port name differs from the driver's name. *)
  Array.iter
    (fun (name, id) ->
      if escape_name name <> node_name id then begin
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n" (node_name id) (escape_name name));
        Buffer.add_string buf "1 1\n"
      end)
    (Netlist.outputs nl);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
