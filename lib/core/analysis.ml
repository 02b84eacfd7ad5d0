module Pl = Ee_phased.Pl
module Lut4 = Ee_logic.Lut4

type gate_info = { prob_one : float; expected_fire : float }

type prediction = {
  per_gate : gate_info array;
  predicted_settle : float;
  trigger_rates : (int * float) list;
}

(* P(f = 1) given independent input probabilities. *)
let lut_prob func fanin_probs =
  let k = Array.length fanin_probs in
  let total = ref 0. in
  for m = 0 to (1 lsl k) - 1 do
    if Lut4.eval_bits func m then begin
      let p = ref 1. in
      for j = 0 to k - 1 do
        p := !p *. (if (m lsr j) land 1 = 1 then fanin_probs.(j) else 1. -. fanin_probs.(j))
      done;
      total := !total +. !p
    end
  done;
  !total

let predict ?(config = Ee_sim.Sim.default_config) pl =
  let gates = Pl.gates pl in
  let n = Array.length gates in
  let prob = Array.make n 0.5 in
  let time = Array.make n 0. in
  let trigger_rates = ref [] in
  Array.iter
    (fun i ->
      let g = gates.(i) in
      let fanin_probs = Array.map (fun f -> prob.(f)) g.Pl.fanin in
      let fanin_time () =
        Array.fold_left (fun acc f -> max acc time.(f)) 0. g.Pl.fanin
      in
      match g.Pl.kind with
      | Pl.Source _ | Pl.Register _ ->
          prob.(i) <- 0.5;
          time.(i) <- 0.
      | Pl.Const_source v ->
          prob.(i) <- (if v then 1. else 0.);
          time.(i) <- 0.
      | Pl.Trigger { func; _ } ->
          prob.(i) <- lut_prob func fanin_probs;
          time.(i) <- fanin_time () +. config.Ee_sim.Sim.gate_delay
      | Pl.Sink _ ->
          prob.(i) <- fanin_probs.(0);
          time.(i) <- time.(g.Pl.fanin.(0))
      | Pl.Gate func -> (
          prob.(i) <- lut_prob func fanin_probs;
          let arrival = fanin_time () in
          let normal = arrival +. config.Ee_sim.Sim.gate_delay in
          match Pl.ee pl i with
          | None -> time.(i) <- normal
          | Some e ->
              let p_early = prob.(e.Pl.trigger) in
              trigger_rates := (i, p_early) :: !trigger_rates;
              let trig = time.(e.Pl.trigger) in
              let t_early = Ee_phased.Timing.early config trig in
              let guarded =
                Ee_phased.Timing.guarded config ~delay:config.Ee_sim.Sim.gate_delay
                  (max arrival trig)
              in
              time.(i) <- (p_early *. min t_early guarded) +. ((1. -. p_early) *. guarded)))
    (Pl.topo pl);
  (* Settle: sinks plus register D arrivals (plus their firing delay). *)
  let settle = ref 0. in
  Array.iteri
    (fun i g ->
      match g.Pl.kind with
      | Pl.Register _ ->
          settle := max !settle (time.(g.Pl.fanin.(0)) +. config.Ee_sim.Sim.gate_delay)
      | Pl.Sink _ -> settle := max !settle time.(i)
      | Pl.Gate _ | Pl.Trigger _ -> settle := max !settle time.(i)
      | Pl.Source _ | Pl.Const_source _ -> ())
    gates;
  {
    per_gate = Array.init n (fun i -> { prob_one = prob.(i); expected_fire = time.(i) });
    predicted_settle = !settle;
    trigger_rates = List.rev !trigger_rates;
  }

let predicted_speedup ?config pl pl_ee =
  let base = (predict ?config pl).predicted_settle in
  let ee = (predict ?config pl_ee).predicted_settle in
  Ee_util.Stats.percent_change ~before:base ~after:ee
