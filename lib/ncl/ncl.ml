module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

(* Threshold-gate node kinds.  [Src] rails are driven by the environment
   (primary inputs, register state, folded constants). *)
type tg =
  | Src
  | C of int array (* THkk: asserts when all fanins asserted *)
  | Or of int array (* TH1n: asserts when any fanin asserted *)

type t = {
  netlist : Netlist.t;
  gates : tg array;
  rail1 : int array; (* per netlist node: tg id of its DATA1 rail *)
  rail0 : int array;
  const_value : bool option array; (* folded constant nodes *)
  observed : (int * int) list; (* rail pairs watched by completion (outputs + reg D) *)
  n_threshold : int; (* C + Or gates *)
}

let of_netlist nl =
  let n = Netlist.node_count nl in
  let gates = ref [] in
  let count = ref 0 in
  let push g =
    gates := g :: !gates;
    incr count;
    !count - 1
  in
  let rail1 = Array.make n (-1) in
  let rail0 = Array.make n (-1) in
  let const_value = Array.make n None in
  let n_threshold = ref 0 in
  List.iter
    (fun i ->
      match Netlist.node nl i with
      | Netlist.Input _ | Netlist.Dff _ ->
          rail1.(i) <- push Src;
          rail0.(i) <- push Src
      | Netlist.Const v ->
          const_value.(i) <- Some v;
          rail1.(i) <- push Src;
          rail0.(i) <- push Src
      | Netlist.Lut { func; fanin } -> (
          let k = Array.length fanin in
          (* Fold constants feeding the LUT into the function. *)
          let func = ref func and live = ref [] in
          Array.iteri
            (fun j f ->
              match const_value.(f) with
              | Some v -> func := Lut4.restrict !func ~var:j ~value:v
              | None -> live := (j, f) :: !live)
            fanin;
          let live = List.rev !live in
          match Lut4.constant_under !func ~subset:0 ~assignment:0 with
          | Some v ->
              (* The LUT folded to a constant (its live inputs are
                 don't-cares); treat it as a constant source. *)
              const_value.(i) <- Some v;
              rail1.(i) <- push Src;
              rail0.(i) <- push Src
          | None ->
              (* DIMS: one C-element per minterm over the live inputs, then
                 one OR per rail. *)
              let kl = List.length live in
              ignore k;
              let on = ref [] and off = ref [] in
              for m = 0 to (1 lsl kl) - 1 do
                (* Expand the compact live-minterm back to LUT positions. *)
                let full = ref 0 in
                List.iteri
                  (fun idx (j, _) -> if (m lsr idx) land 1 = 1 then full := !full lor (1 lsl j))
                  live;
                let ins =
                  Array.of_list
                    (List.mapi
                       (fun idx (_, f) ->
                         if (m lsr idx) land 1 = 1 then rail1.(f) else rail0.(f))
                       live)
                in
                let c = push (C ins) in
                incr n_threshold;
                if Lut4.eval_bits !func !full then on := c :: !on else off := c :: !off
              done;
              rail1.(i) <- push (Or (Array.of_list (List.rev !on)));
              rail0.(i) <- push (Or (Array.of_list (List.rev !off)));
              n_threshold := !n_threshold + 2))
    (Netlist.topo_order nl);
  let observed =
    Array.to_list (Array.map (fun (_, id) -> (rail1.(id), rail0.(id))) (Netlist.outputs nl))
    @ List.filter_map
        (fun i ->
          match Netlist.node nl i with
          | Netlist.Dff { d; _ } -> Some (rail1.(d), rail0.(d))
          | _ -> None)
        (Netlist.dff_ids nl)
  in
  {
    netlist = nl;
    gates = Array.of_list (List.rev !gates);
    rail1;
    rail0;
    const_value;
    observed;
    n_threshold = !n_threshold;
  }

let gate_count t = t.n_threshold

let completion_inputs t = List.length t.observed

let completion_depth t =
  let n = List.length t.observed in
  if n <= 1 then 1 else Ee_util.Bits.log2_ceil n

(* One DATA wavefront: returns (asserted, time) per tg node. *)
let data_wave t ~gate_delay ~state ~vector ~input_times =
  let nl = t.netlist in
  let ng = Array.length t.gates in
  let asserted = Array.make ng false in
  let time = Array.make ng 0. in
  (* Drive the sources. *)
  let input_rank = Hashtbl.create 16 in
  Array.iteri (fun k (_, id) -> Hashtbl.replace input_rank id k) (Netlist.inputs nl);
  for i = 0 to Netlist.node_count nl - 1 do
    let drive value at =
      let a = if value then t.rail1.(i) else t.rail0.(i) in
      asserted.(a) <- true;
      time.(a) <- at
    in
    match Netlist.node nl i with
    | Netlist.Input _ ->
        let k = Hashtbl.find input_rank i in
        drive vector.(k) input_times.(k)
    | Netlist.Dff _ -> drive state.(i) 0.
    | Netlist.Const _ -> (
        match t.const_value.(i) with Some v -> drive v 0. | None -> assert false)
    | Netlist.Lut _ -> (
        match t.const_value.(i) with Some v -> drive v 0. | None -> ())
  done;
  (* Threshold gates in construction order (topological). *)
  Array.iteri
    (fun g kind ->
      match kind with
      | Src -> ()
      | C ins ->
          if Array.for_all (fun x -> asserted.(x)) ins then begin
            asserted.(g) <- true;
            time.(g) <- Array.fold_left (fun acc x -> max acc time.(x)) 0. ins +. gate_delay
          end
      | Or ins ->
          let best = ref infinity in
          Array.iter (fun x -> if asserted.(x) && time.(x) < !best then best := time.(x)) ins;
          if !best < infinity then begin
            asserted.(g) <- true;
            time.(g) <- !best +. gate_delay
          end)
    t.gates;
  (asserted, time)

(* NULL wavefront traversal time: with hysteresis every gate waits for all
   inputs to return, so the time is the structural longest path. *)
let null_time t ~gate_delay =
  let ng = Array.length t.gates in
  let depth = Array.make ng 0. in
  Array.iteri
    (fun g kind ->
      match kind with
      | Src -> ()
      | C ins | Or ins ->
          depth.(g) <- Array.fold_left (fun acc x -> max acc depth.(x)) 0. ins +. gate_delay)
    t.gates;
  List.fold_left (fun acc (r1, r0) -> max acc (max depth.(r1) depth.(r0))) 0. t.observed

let initial_reg_state nl =
  Array.init (Netlist.node_count nl) (fun i ->
      match Netlist.node nl i with Netlist.Dff { init; _ } -> init | _ -> false)

type run = {
  waves : int;
  avg_data_time : float;
  null_time : float;
  avg_cycle : float;
}

let wave_outputs t asserted =
  Array.map
    (fun (_, id) ->
      let one = asserted.(t.rail1.(id)) and zero = asserted.(t.rail0.(id)) in
      assert (one <> zero);
      one)
    (Netlist.outputs t.netlist)

let next_state t asserted state =
  let nl = t.netlist in
  Array.mapi
    (fun i keep ->
      match Netlist.node nl i with
      | Netlist.Dff { d; _ } ->
          let one = asserted.(t.rail1.(d)) in
          assert (one <> asserted.(t.rail0.(d)));
          one
      | _ -> keep)
    state

let run_random ?(gate_delay = 1.0) t ~vectors ~seed =
  let nl = t.netlist in
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Netlist.inputs nl) in
  let input_times = Array.make width 0. in
  let state = ref (initial_reg_state nl) in
  let comp = float_of_int (completion_depth t) *. gate_delay in
  let nullt = null_time t ~gate_delay in
  let data_times = Array.make vectors 0. in
  for w = 0 to vectors - 1 do
    let vector = Ee_util.Prng.bool_vector rng width in
    let asserted, time = data_wave t ~gate_delay ~state:!state ~vector ~input_times in
    let dt =
      List.fold_left
        (fun acc (r1, r0) -> max acc (time.(if asserted.(r1) then r1 else r0)))
        0. t.observed
    in
    data_times.(w) <- dt;
    state := next_state t asserted !state
  done;
  let avg_data = Ee_util.Stats.mean data_times in
  {
    waves = vectors;
    avg_data_time = avg_data;
    null_time = nullt;
    avg_cycle = avg_data +. comp +. nullt +. comp;
  }

let equiv_random t nl ~vectors ~seed =
  let input_times = Array.make (Array.length (Netlist.inputs nl)) 0. in
  let state = ref (initial_reg_state nl) in
  Netlist.agrees_random nl ~vectors ~seed (fun vector ->
      let asserted, _ = data_wave t ~gate_delay:1.0 ~state:!state ~vector ~input_times in
      state := next_state t asserted !state;
      wave_outputs t asserted)

let strongly_indicating_witness t ~vectors ~seed =
  let nl = t.netlist in
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Netlist.inputs nl) in
  (* Cone bound: the latest input arrival reachable from each gate,
     structurally. *)
  let ok = ref true in
  for _ = 1 to vectors do
    if !ok then begin
      let vector = Ee_util.Prng.bool_vector rng width in
      let input_times = Array.init width (fun _ -> Ee_util.Prng.float rng 10.) in
      let state = initial_reg_state nl in
      let asserted, time = data_wave t ~gate_delay:1.0 ~state ~vector ~input_times in
      let ng = Array.length t.gates in
      let cone = Array.make ng 0. in
      let input_rank = Hashtbl.create 16 in
      Array.iteri (fun k (_, id) -> Hashtbl.replace input_rank id k) (Netlist.inputs nl);
      for i = 0 to Netlist.node_count nl - 1 do
        match Netlist.node nl i with
        | Netlist.Input _ ->
            let at = input_times.(Hashtbl.find input_rank i) in
            cone.(t.rail1.(i)) <- at;
            cone.(t.rail0.(i)) <- at
        | _ -> ()
      done;
      Array.iteri
        (fun g kind ->
          match kind with
          | Src -> ()
          | C ins | Or ins ->
              cone.(g) <- Array.fold_left (fun acc x -> max acc cone.(x)) 0. ins)
        t.gates;
      Array.iter
        (fun (_, id) ->
          let r = if asserted.(t.rail1.(id)) then t.rail1.(id) else t.rail0.(id) in
          if time.(r) < cone.(r) -. 1e-9 then ok := false)
        (Netlist.outputs nl)
    end
  done;
  !ok
