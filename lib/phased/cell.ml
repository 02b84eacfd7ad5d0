module Lut4 = Ee_logic.Lut4

(* Components of Figure 1, evaluated explicitly:

   - phase_eq.(k): XNOR comparing input k's phase (v XOR t) with the gate
     phase — low when input k carries a fresh (opposite-phase) token;
   - the Muller C-element: output goes high when every phase_eq is low
     (all tokens fresh) and low when every phase_eq is high; in between it
     holds its state.  Its output toggling *is* the firing event;
   - on firing, the two latches capture the LUT4 value and the new phase
     bit (encoded as the t rail). *)
type t = {
  func : Lut4.t;
  arity : int;
  ins : Ledr.rails array;
  mutable c_state : bool; (* Muller-C output; true = odd gate phase *)
  mutable latch_v : bool;
  mutable latch_t : bool;
}

let create func ~arity =
  if arity < 1 || arity > 4 then invalid_arg "Cell.create: arity 1..4";
  {
    func;
    arity;
    ins = Array.make arity (Ledr.encode ~value:false ~phase:Ledr.Even);
    c_state = false;
    latch_v = false;
    latch_t = false;
  }

let inputs t = Array.copy t.ins

let set_input t k rails =
  if k < 0 || k >= t.arity then invalid_arg "Cell.set_input: index";
  t.ins.(k) <- rails

let gate_phase t = Ledr.phase_of_bool t.c_state

let output t = { Ledr.v = t.latch_v; t = t.latch_t }

let phase_eq t k =
  (* XNOR of input phase and gate phase. *)
  Ledr.bool_of_phase (Ledr.phase t.ins.(k)) = t.c_state

let fires_pending t =
  let all_fresh = ref true in
  for k = 0 to t.arity - 1 do
    if phase_eq t k then all_fresh := false
  done;
  !all_fresh

(* One component-evaluation round; returns true if any state changed. *)
let eval_round t =
  let all_low = ref true and all_high = ref true in
  for k = 0 to t.arity - 1 do
    if phase_eq t k then all_low := false else all_high := false
  done;
  let next_c =
    if !all_low then not t.c_state (* every input fresh: toggle (fire) *)
    else t.c_state
  in
  ignore !all_high;
  if next_c <> t.c_state then begin
    (* Firing: latch the LUT output and the new phase. *)
    let m = ref 0 in
    Array.iteri (fun k r -> if Ledr.value r then m := !m lor (1 lsl k)) t.ins;
    let value = Lut4.eval_bits t.func !m in
    t.c_state <- next_c;
    t.latch_v <- value;
    (* output phase = gate phase (Figure 1): t rail = v XOR phase. *)
    t.latch_t <- value <> next_c;
    true
  end
  else false

exception Unstable of { rounds : int; gate_phase : Ledr.phase; inputs : Ledr.rails array }

let settle t =
  let rec go rounds =
    if rounds > 8 then
      raise (Unstable { rounds; gate_phase = gate_phase t; inputs = Array.copy t.ins })
    else if eval_round t then go (rounds + 1)
    else rounds
  in
  go 0

let feedback_to_producers t = not t.c_state

let feedback_to_consumers t = not (Ledr.bool_of_phase (Ledr.phase (output t)))
