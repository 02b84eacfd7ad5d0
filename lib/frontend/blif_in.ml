module Netlist = Ee_netlist.Netlist
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Cube = Ee_logic.Cube

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let unescape = Ee_export.Blif.unescape_name

(* -------------------------------------------------------------------- *)
(* Tokenization: comments, '\' continuations, CRLF                      *)
(* -------------------------------------------------------------------- *)

let tokenize text =
  let lines = String.split_on_char '\n' text in
  let cleaned =
    List.mapi
      (fun idx l ->
        let l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
        (idx + 1, String.trim l))
      lines
  in
  let rec join = function
    | (n, l) :: rest when String.length l > 0 && l.[String.length l - 1] = '\\' -> (
        match join rest with
        | (_, l2) :: rest2 -> (n, String.sub l 0 (String.length l - 1) ^ " " ^ l2) :: rest2
        | [] -> [ (n, String.sub l 0 (String.length l - 1)) ])
    | x :: rest -> x :: join rest
    | [] -> []
  in
  List.filter (fun (_, l) -> l <> "") (join cleaned)

let words s =
  List.filter (fun w -> w <> "")
    (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s))

(* -------------------------------------------------------------------- *)
(* Raw model representation                                             *)
(* -------------------------------------------------------------------- *)

type raw_names = {
  ins : string list;
  out : string;
  mutable cubes : (string * char) list;  (** reversed during parse *)
  nline : int;
}

type raw_latch = { d : string; q : string; init : bool; lline : int }

type raw_subckt = { sub_model : string; binds : (string * string) list; sline : int }

type model = {
  mname : string;
  mutable m_inputs : string list;
  mutable m_outputs : string list;
  mutable names : raw_names list;  (** reversed during parse *)
  mutable latches : raw_latch list;  (** reversed during parse *)
  mutable subckts : raw_subckt list;  (** reversed during parse *)
  mline : int;
}

(* Directives safely ignored: annotations that do not change the logic. *)
let ignorable w =
  List.mem w
    [
      ".clock"; ".area"; ".delay"; ".wire_load_slope"; ".default_input_arrival";
      ".default_output_required"; ".input_arrival"; ".output_required";
      ".input_drive"; ".output_load"; ".default_input_drive";
      ".default_output_load"; ".default_max_input_load"; ".max_input_load";
      ".no_latch_sharing"; ".cycle"; ".clock_event"; ".latch_order";
    ]

let latch_of_tokens n = function
  | d :: q :: rest ->
      let init =
        match List.rev rest with
        | last :: _ when last = "1" -> true
        | _ -> false (* 0, 2 (don't care) and 3 (unknown) all reset to 0 *)
      in
      { d = unescape d; q = unescape q; init; lline = n }
  | _ -> fail n ".latch needs an input and an output"

let parse_models text =
  let models = ref [] in
  let current = ref None in
  let pending : raw_names option ref = ref None in
  let in_exdc = ref false in
  let flush_pending m =
    match !pending with
    | Some def ->
        def.cubes <- List.rev def.cubes;
        m.names <- def :: m.names;
        pending := None
    | None -> ()
  in
  let need_model n =
    match !current with
    | Some m -> m
    | None ->
        (* Headerless BLIF: some dumps omit [.model]; open an anonymous one. *)
        let m =
          { mname = ""; m_inputs = []; m_outputs = []; names = []; latches = [];
            subckts = []; mline = n }
        in
        current := Some m;
        m
  in
  let close_model () =
    match !current with
    | Some m ->
        flush_pending m;
        models := m :: !models;
        current := None;
        in_exdc := false
    | None -> ()
  in
  List.iter
    (fun (n, line) ->
      let ws = words line in
      if !in_exdc then begin
        (* The exdc network is advisory (external don't-cares): skip until
           the model's .end. *)
        match ws with ".end" :: _ -> close_model () | _ -> ()
      end
      else
        match ws with
        | ".model" :: rest ->
            close_model ();
            let name = match rest with nm :: _ -> unescape nm | [] -> "" in
            current :=
              Some
                { mname = name; m_inputs = []; m_outputs = []; names = [];
                  latches = []; subckts = []; mline = n }
        | ".inputs" :: ws' ->
            let m = need_model n in
            flush_pending m;
            m.m_inputs <- m.m_inputs @ List.map unescape ws'
        | ".outputs" :: ws' ->
            let m = need_model n in
            flush_pending m;
            m.m_outputs <- m.m_outputs @ List.map unescape ws'
        | ".names" :: ws' -> (
            let m = need_model n in
            flush_pending m;
            match List.rev (List.map unescape ws') with
            | out :: rev_ins ->
                pending := Some { ins = List.rev rev_ins; out; cubes = []; nline = n }
            | [] -> fail n ".names needs at least an output")
        | ".latch" :: rest ->
            let m = need_model n in
            flush_pending m;
            m.latches <- latch_of_tokens n rest :: m.latches
        | ".subckt" :: sub_model :: binds ->
            let m = need_model n in
            flush_pending m;
            let binds =
              List.map
                (fun tok ->
                  match String.index_opt tok '=' with
                  | Some i ->
                      ( unescape (String.sub tok 0 i),
                        unescape (String.sub tok (i + 1) (String.length tok - i - 1)) )
                  | None -> fail n ".subckt connection %S is not formal=actual" tok)
                binds
            in
            m.subckts <- { sub_model = unescape sub_model; binds; sline = n } :: m.subckts
        | ".subckt" :: [] -> fail n ".subckt needs a model name"
        | ".exdc" :: _ ->
            let m = need_model n in
            flush_pending m;
            in_exdc := true
        | ".end" :: _ -> close_model ()
        | w :: _ when ignorable w -> (
            match !current with Some m -> flush_pending m | None -> ())
        | w :: _ when String.length w > 0 && w.[0] = '.' ->
            fail n "unsupported construct %s" w
        | _ -> (
            match !pending with
            | Some def -> (
                match ws with
                | [ plane; ov ] when String.length ov = 1 && (ov = "0" || ov = "1") ->
                    def.cubes <- (plane, ov.[0]) :: def.cubes
                | [ ov ] when ov = "0" || ov = "1" -> def.cubes <- ("", ov.[0]) :: def.cubes
                | _ -> fail n "malformed cube line %S" line)
            | None -> fail n "unexpected line %S" line))
    (tokenize text);
  close_model ();
  let models = List.rev !models in
  if models = [] then fail 0 "no model in BLIF input";
  List.iter
    (fun m ->
      m.names <- List.rev m.names;
      m.latches <- List.rev m.latches;
      m.subckts <- List.rev m.subckts)
    models;
  models

(* -------------------------------------------------------------------- *)
(* Subcircuit flattening                                                *)
(* -------------------------------------------------------------------- *)

type flat = {
  mutable f_names : raw_names list;  (** reversed; finalized at the end *)
  mutable f_latches : raw_latch list;  (** reversed *)
}

let find_model models name line =
  match List.find_opt (fun m -> m.mname = name) models with
  | Some m -> m
  | None -> fail line "unknown .subckt model %S" name

(* Instantiate [m] into [flat], renaming signals through [rename]. *)
let rec instantiate models flat stack counter m rename =
  if List.mem m.mname stack then
    fail m.mline "recursive .subckt instantiation of model %S" m.mname;
  List.iter
    (fun d ->
      flat.f_names <-
        { d with ins = List.map rename d.ins; out = rename d.out } :: flat.f_names)
    m.names;
  List.iter
    (fun (l : raw_latch) ->
      flat.f_latches <- { l with d = rename l.d; q = rename l.q } :: flat.f_latches)
    m.latches;
  List.iter
    (fun sc ->
      let child = find_model models sc.sub_model sc.sline in
      let inst = !counter in
      incr counter;
      let prefix = Printf.sprintf "u%d/" inst in
      let formals = Hashtbl.create 16 in
      List.iter
        (fun (formal, actual) ->
          if Hashtbl.mem formals formal then
            fail sc.sline ".subckt binds %s twice" formal;
          Hashtbl.replace formals formal (rename actual))
        sc.binds;
      let ports = child.m_inputs @ child.m_outputs in
      List.iter
        (fun (formal, _) ->
          if not (List.mem formal ports) then
            fail sc.sline "model %S has no port %S" child.mname formal)
        sc.binds;
      List.iter
        (fun p ->
          if not (Hashtbl.mem formals p) then
            fail sc.sline "instance of %S leaves input %S unconnected" child.mname p)
        child.m_inputs;
      let child_rename s =
        match Hashtbl.find_opt formals s with
        | Some actual -> actual
        | None -> prefix ^ s
      in
      instantiate models flat (m.mname :: stack) counter child child_rename)
    m.subckts

let flatten models top =
  let m =
    match top with
    | None -> List.hd models
    | Some name -> (
        match List.find_opt (fun m -> m.mname = name) models with
        | Some m -> m
        | None -> fail 0 "no model named %S in BLIF input" name)
  in
  let flat = { f_names = []; f_latches = [] } in
  instantiate models flat [] (ref 0) m (fun s -> s);
  (m, List.rev flat.f_names, List.rev flat.f_latches)

(* -------------------------------------------------------------------- *)
(* Netlist construction                                                 *)
(* -------------------------------------------------------------------- *)

let cube_of_plane line nvars plane =
  if String.length plane <> nvars then fail line "cube width mismatch (%S)" plane;
  let care = ref 0 and value = ref 0 in
  String.iteri
    (fun j ch ->
      match ch with
      | '-' -> ()
      | '1' ->
          care := !care lor (1 lsl j);
          value := !value lor (1 lsl j)
      | '0' -> care := !care lor (1 lsl j)
      | _ -> fail line "bad cube character %c" ch)
    plane;
  Cube.make ~care:!care ~value:!value

(* The polarity of a cover: all output characters must agree. *)
let cover_polarity line name cubes =
  match cubes with
  | [] -> '1'
  | (_, v) :: rest ->
      List.iter
        (fun (_, v') -> if v' <> v then fail line "mixed cover polarities for %s" name)
        rest;
      v

let build top names latches =
  let b = Netlist.builder () in
  let names_defs : (string, raw_names) Hashtbl.t = Hashtbl.create 256 in
  let latch_defs : (string, raw_latch) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (d : raw_names) ->
      if Hashtbl.mem names_defs d.out then fail d.nline "signal %s driven twice" d.out;
      Hashtbl.replace names_defs d.out d)
    names;
  List.iter
    (fun (l : raw_latch) ->
      if Hashtbl.mem latch_defs l.q || Hashtbl.mem names_defs l.q then
        fail l.lline "signal %s driven twice" l.q;
      Hashtbl.replace latch_defs l.q l)
    latches;
  let node_of : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun name ->
      (match (Hashtbl.find_opt names_defs name, Hashtbl.find_opt latch_defs name) with
      | Some d, _ -> fail d.nline "signal %s driven twice" name
      | None, Some l -> fail l.lline "signal %s driven twice" name
      | None, None -> ());
      if not (Hashtbl.mem node_of name) then
        Hashtbl.replace node_of name (Netlist.add_input b name))
    top.m_inputs;
  (* Registers in declaration order so positional correspondence survives. *)
  List.iter
    (fun (l : raw_latch) -> Hashtbl.replace node_of l.q (Netlist.add_dff b ~init:l.init))
    latches;
  let building = Hashtbl.create 64 in
  let rec resolve name =
    match Hashtbl.find_opt node_of name with
    | Some id -> id
    | None -> (
        if Hashtbl.mem building name then fail 0 "combinational cycle through %s" name;
        Hashtbl.replace building name ();
        match Hashtbl.find_opt names_defs name with
        | None -> fail 0 "undriven signal %s" name
        | Some def ->
            let k = List.length def.ins in
            if k > Sop.max_vars then
              fail def.nline "%s has %d inputs; the frontend supports at most %d" name k
                Sop.max_vars;
            let id =
              if k = 0 then
                Netlist.add_const b (List.exists (fun (_, v) -> v = '1') def.cubes)
              else begin
                let polarity = cover_polarity def.nline name def.cubes in
                let cubes =
                  List.map (fun (p, _) -> cube_of_plane def.nline k p) def.cubes
                in
                let fanin = Array.of_list (List.map resolve def.ins) in
                if k <= 4 then begin
                  (* Narrow cover: one LUT, don't-cares resolved exactly. *)
                  let tt =
                    Tt.of_fun k (fun m ->
                        let hit = List.exists (fun c -> Cube.contains_minterm c m) cubes in
                        if polarity = '1' then hit else not hit)
                  in
                  Netlist.add_lut b (Lut4.of_truthtab tt) fanin
                end
                else if k <= 12 then begin
                  (* Mid width: tabulate and re-minimize through ISOP, which
                     typically shrinks machine-dumped covers. *)
                  let tt =
                    Tt.of_fun k (fun m ->
                        let hit = List.exists (fun c -> Cube.contains_minterm c m) cubes in
                        if polarity = '1' then hit else not hit)
                  in
                  Sop.of_truthtab b tt fanin
                end
                else
                  (* Wide cover: decompose the parsed cubes directly. *)
                  Sop.of_cover b ~nvars:k ~fanin ~complement:(polarity = '0') cubes
              end
            in
            Hashtbl.remove building name;
            Hashtbl.replace node_of name id;
            id)
  in
  List.iter (fun name -> ignore (resolve name)) top.m_outputs;
  List.iter
    (fun (l : raw_latch) ->
      Netlist.connect_dff b (Hashtbl.find node_of l.q) ~d:(resolve l.d))
    latches;
  List.iter (fun name -> Netlist.set_output b name (resolve name)) top.m_outputs;
  Netlist.finalize b

let of_string ?top text =
  let models = parse_models text in
  let m, names, latches = flatten models top in
  build m names latches

let parse ?top text =
  match of_string ?top text with
  | nl -> Ok nl
  | exception Parse_error (line, msg) ->
      Error
        (if line = 0 then Printf.sprintf "BLIF: %s" msg
         else Printf.sprintf "BLIF line %d: %s" line msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "BLIF: %s" msg)
