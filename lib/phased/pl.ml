module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

type kind =
  | Source of string
  | Const_source of bool
  | Gate of Lut4.t
  | Register of bool
  | Trigger of { master : int; func : Lut4.t }
  | Sink of string

type gate = { kind : kind; fanin : int array }

type ee_info = { trigger : int; support : int; coverage : float; cost : float }

type ee_info_request = {
  req_support : int;
  req_func : Lut4.t;
  req_coverage : float;
  req_cost : float;
}

type t = {
  gates : gate array;
  ee : ee_info option array;
  source_ids : int array;
  sink_ids : int array;
  topo : int array;
  levels : int array;
}

let gates t = t.gates

let gate t i = t.gates.(i)

let ee t i = t.ee.(i)

let source_ids t = t.source_ids

let sink_ids t = t.sink_ids

let pl_gate_count t =
  Array.fold_left
    (fun acc g -> match g.kind with Gate _ | Register _ -> acc + 1 | _ -> acc)
    0 t.gates

let ee_gate_count t =
  Array.fold_left
    (fun acc g -> match g.kind with Trigger _ -> acc + 1 | _ -> acc)
    0 t.gates

let topo t = t.topo

let level t i = t.levels.(i)

let arrival t i = t.levels.(i) + 1

(* Token-holding gates (sources, constants, registers) first, in id
   order: they hold wave-start tokens and order nothing.  Then the
   wave-dependent gates (combinational gates, triggers, sinks) in
   depth-first post-order, each after its wave-dependent fanins and a
   master also after its trigger. *)
let compute_topo gates ee =
  let n = Array.length gates in
  let wave_dependent j =
    match gates.(j).kind with
    | Gate _ | Trigger _ | Sink _ -> true
    | Source _ | Const_source _ | Register _ -> false
  in
  let state = Array.make n 0 and topo = Array.make n 0 and next = ref 0 in
  let emit i =
    topo.(!next) <- i;
    incr next
  in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 -> invalid_arg "Pl: combinational cycle"
    | _ ->
        state.(i) <- 1;
        (match ee.(i) with Some e when wave_dependent e.trigger -> visit e.trigger | _ -> ());
        let fanin = gates.(i).fanin in
        for k = 0 to Array.length fanin - 1 do
          if wave_dependent fanin.(k) then visit fanin.(k)
        done;
        state.(i) <- 2;
        emit i
  in
  for i = 0 to n - 1 do
    if not (wave_dependent i) then begin
      state.(i) <- 2;
      emit i
    end
  done;
  for i = 0 to n - 1 do
    if wave_dependent i then visit i
  done;
  topo

let compute_levels gates topo =
  let levels = Array.make (Array.length gates) 0 in
  Array.iter
    (fun i ->
      match gates.(i).kind with
      | Source _ | Const_source _ | Register _ -> levels.(i) <- 0
      | Gate _ | Trigger _ ->
          levels.(i) <-
            1 + Array.fold_left (fun acc f -> max acc levels.(f)) 0 gates.(i).fanin
      | Sink _ ->
          levels.(i) <- Array.fold_left (fun acc f -> max acc levels.(f)) 0 gates.(i).fanin)
    topo;
  levels

let build gates_arr ee source_ids sink_ids =
  let topo = compute_topo gates_arr ee in
  let levels = compute_levels gates_arr topo in
  { gates = gates_arr; ee; source_ids; sink_ids; topo; levels }

let of_netlist nl =
  let n = Netlist.node_count nl in
  let nsinks = Array.length (Netlist.outputs nl) in
  (* Register-to-register connections (shift stages, swaps, self-holds) get
     an identity buffer gate in between: it models the unit-depth input
     queue of the PL cell, without which two adjacent marked stages — a
     100%-occupied self-timed ring — could not move (the swap A'=B, B'=A
     would deadlock and its feedback arcs would form a token-free cycle). *)
  let is_dff i = match Netlist.node nl i with Netlist.Dff _ -> true | _ -> false in
  let reg_to_reg =
    List.filter
      (fun i -> match Netlist.node nl i with Netlist.Dff { d; _ } -> is_dff d | _ -> false)
      (Netlist.dff_ids nl)
  in
  let extra = List.length reg_to_reg in
  let total = n + nsinks + extra in
  let gates_arr = Array.make total { kind = Const_source false; fanin = [||] } in
  let buffer_of = Hashtbl.create 8 in
  List.iteri (fun k i -> Hashtbl.replace buffer_of i (n + nsinks + k)) reg_to_reg;
  for i = 0 to n - 1 do
    gates_arr.(i) <-
      (match Netlist.node nl i with
      | Netlist.Input name -> { kind = Source name; fanin = [||] }
      | Netlist.Const v -> { kind = Const_source v; fanin = [||] }
      | Netlist.Lut { func; fanin } -> { kind = Gate func; fanin = Array.copy fanin }
      | Netlist.Dff { d; init } ->
          let d' = match Hashtbl.find_opt buffer_of i with Some b -> b | None -> d in
          { kind = Register init; fanin = [| d' |] })
  done;
  Array.iteri
    (fun k (name, id) -> gates_arr.(n + k) <- { kind = Sink name; fanin = [| id |] })
    (Netlist.outputs nl);
  List.iter
    (fun i ->
      match Netlist.node nl i with
      | Netlist.Dff { d; _ } ->
          gates_arr.(Hashtbl.find buffer_of i) <-
            { kind = Gate (Lut4.var 0); fanin = [| d |] }
      | _ -> assert false)
    reg_to_reg;
  let source_ids = Array.map snd (Netlist.inputs nl) in
  let sink_ids = Array.init nsinks (fun k -> n + k) in
  build gates_arr (Array.make total None) source_ids sink_ids

(* The trigger reads the subset of the master's inputs; its function is
   re-indexed onto its own (compacted) input positions.  Positions are
   taken in (signal, position) order rather than position order, so two
   masters reading the same signals through permuted fanin produce
   byte-identical triggers — which is what lets [with_ee_shared] merge
   them into one gate. *)
let compact_trigger master_fanin req =
  let positions = Ee_util.Bits.indices req.req_support in
  List.iter
    (fun p ->
      if p < 0 || p >= Array.length master_fanin then
        invalid_arg "Pl.with_ee: support position out of range")
    positions;
  let positions =
    List.sort
      (fun a b -> compare (master_fanin.(a), a) (master_fanin.(b), b))
      positions
  in
  let tfanin = Array.of_list (List.map (fun p -> master_fanin.(p)) positions) in
  let compact =
    Lut4.of_truthtab
      (Ee_logic.Truthtab.of_fun (List.length positions) (fun m ->
           (* Scatter the compact minterm back to master positions. *)
           let full = ref 0 in
           List.iteri
             (fun j p -> if (m lsr j) land 1 = 1 then full := !full lor (1 lsl p))
             positions;
           Lut4.eval_bits req.req_func !full))
  in
  (tfanin, compact)

let with_ee_gen ~share t pairs =
  let n = Array.length t.gates in
  (* First pass: validate and compute each pair's trigger signature. *)
  let prepared =
    List.map
      (fun (master, req) ->
        (match t.gates.(master).kind with
        | Gate _ -> ()
        | _ -> invalid_arg "Pl.with_ee: master is not a combinational gate");
        if t.ee.(master) <> None then invalid_arg "Pl.with_ee: master already has a trigger";
        let tfanin, compact = compact_trigger t.gates.(master).fanin req in
        (master, req, tfanin, compact))
      pairs
  in
  (let seen = Hashtbl.create 16 in
   List.iter
     (fun (master, _, _, _) ->
       if Hashtbl.mem seen master then
         invalid_arg "Pl.with_ee: master already has a trigger";
       Hashtbl.add seen master ())
     prepared);
  (* Second pass: allocate trigger gates, merging identical ones when
     sharing is on. *)
  let alloc = Hashtbl.create 16 in
  let next = ref n in
  let assignments =
    List.map
      (fun (master, req, tfanin, compact) ->
        let key = (Array.to_list tfanin, ((compact : Lut4.t) :> int)) in
        let tid =
          match if share then Hashtbl.find_opt alloc key else None with
          | Some tid -> tid
          | None ->
              let tid = !next in
              incr next;
              if share then Hashtbl.replace alloc key tid;
              tid
        in
        (master, req, tfanin, compact, tid))
      prepared
  in
  let extra = !next - n in
  let gates_arr =
    Array.append t.gates (Array.make extra { kind = Const_source false; fanin = [||] })
  in
  let ee = Array.append t.ee (Array.make extra None) in
  List.iter
    (fun (master, req, tfanin, compact, tid) ->
      (* A shared trigger keeps its first master as the nominal owner. *)
      (match gates_arr.(tid).kind with
      | Const_source _ -> gates_arr.(tid) <- { kind = Trigger { master; func = compact }; fanin = tfanin }
      | Trigger _ -> ()
      | _ -> assert false);
      ee.(master) <-
        Some
          {
            trigger = tid;
            support = req.req_support;
            coverage = req.req_coverage;
            cost = req.req_cost;
          })
    assignments;
  build gates_arr ee t.source_ids t.sink_ids

let with_ee t pairs = with_ee_gen ~share:false t pairs

let with_ee_shared t pairs = with_ee_gen ~share:true t pairs

let strip_ee t =
  (* Triggers are always appended after every other gate, so stripping is a
     prefix truncation. *)
  let n =
    Array.fold_left
      (fun acc g -> match g.kind with Trigger _ -> acc | _ -> acc + 1)
      0 t.gates
  in
  Array.iteri
    (fun i g ->
      match g.kind with
      | Trigger _ when i < n -> invalid_arg "Pl.strip_ee: trigger gates not a suffix"
      | _ -> ())
    t.gates;
  let gates_arr = Array.sub t.gates 0 n in
  build gates_arr (Array.make n None) t.source_ids t.sink_ids

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph pl {\n  rankdir=LR;\n";
  Array.iteri
    (fun i g ->
      let label, shape, style =
        match g.kind with
        | Source nm -> (nm, "invtriangle", "")
        | Const_source v -> ((if v then "1" else "0"), "plaintext", "")
        | Gate f -> (Printf.sprintf "g%d\\n%s" i (Lut4.to_string f), "box", "")
        | Register _ -> (Printf.sprintf "reg%d" i, "box3d", "")
        | Trigger { master; _ } ->
            (Printf.sprintf "trig%d->g%d" i master, "box", ", style=dashed")
        | Sink nm -> (nm, "triangle", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s%s];\n" i label shape style))
    t.gates;
  Array.iteri
    (fun i g ->
      Array.iter
        (fun src -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" src i))
        g.fanin;
      match t.ee.(i) with
      | Some e ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [style=dashed, label=\"efire\"];\n" e.trigger i)
      | None -> ())
    t.gates;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let stats_string t =
  Printf.sprintf "pl_gates=%d ee_gates=%d sources=%d sinks=%d depth=%d"
    (pl_gate_count t) (ee_gate_count t)
    (Array.length t.source_ids)
    (Array.length t.sink_ids)
    (Array.fold_left max 0 t.levels)
