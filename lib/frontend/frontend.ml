module Netlist = Ee_netlist.Netlist

type format = Blif | Aiger_ascii | Aiger_binary

let format_to_string = function
  | Blif -> "blif"
  | Aiger_ascii -> "aag"
  | Aiger_binary -> "aig"

let format_of_string = function
  | "blif" -> Some Blif
  | "aag" | "aiger" | "aiger-ascii" -> Some Aiger_ascii
  | "aig" | "aiger-binary" -> Some Aiger_binary
  | _ -> None

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let detect text =
  if starts_with "aag " text then Aiger_ascii
  else if starts_with "aig " text then Aiger_binary
  else Blif

let parse ?format ?top text =
  let format = match format with Some f -> f | None -> detect text in
  match format with
  | Blif -> Blif_in.parse ?top text
  | Aiger_ascii | Aiger_binary -> (
      (* The AIGER reader dispatches on the magic itself; an explicit format
         request just validates the magic matches. *)
      let magic = if format = Aiger_ascii then "aag " else "aig " in
      if not (starts_with magic text) then
        Error
          (Printf.sprintf "AIGER: expected %s format but file starts with %S"
             (format_to_string format)
             (String.sub text 0 (min 16 (String.length text))))
      else Aiger.parse text)

let parse_exn ?format ?top text =
  match parse ?format ?top text with
  | Ok nl -> nl
  | Error msg -> invalid_arg msg

type stats = {
  s_format : format;
  s_inputs : int;
  s_outputs : int;
  s_luts : int;
  s_dffs : int;
  s_depth : int;
}

let stats fmt nl =
  {
    s_format = fmt;
    s_inputs = Array.length (Netlist.inputs nl);
    s_outputs = Array.length (Netlist.outputs nl);
    s_luts = Netlist.lut_count nl;
    s_dffs = Netlist.dff_count nl;
    s_depth = Netlist.depth nl;
  }
