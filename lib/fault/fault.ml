module Pl = Ee_phased.Pl
module Ledr = Ee_phased.Ledr
module Rail_sim = Ee_phased.Rail_sim

type rail = V | T

type t =
  | Stuck_rail of { gate : int; rail : rail; value : bool }
  | Glitch_rail of { gate : int; rail : rail; wave : int }
  | Trigger_corrupt of { master : int; wave : int; forced : bool }
  | Token_loss of { gate : int; wave : int }
  | Token_dup of { gate : int; wave : int }

let rail_name = function V -> "v" | T -> "t"

let to_string = function
  | Stuck_rail { gate; rail; value } ->
      Printf.sprintf "stuck-at-%d on rail %s of gate %d" (Bool.to_int value) (rail_name rail) gate
  | Glitch_rail { gate; rail; wave } ->
      Printf.sprintf "glitch on rail %s of gate %d at wave %d" (rail_name rail) gate wave
  | Trigger_corrupt { master; wave; forced } ->
      Printf.sprintf "trigger wire of master %d forced %B at wave %d" master forced wave
  | Token_loss { gate; wave } -> Printf.sprintf "token loss at gate %d, wave %d" gate wave
  | Token_dup { gate; wave } -> Printf.sprintf "token duplication at gate %d, wave %d" gate wave

let window = function
  | Stuck_rail _ -> (0, max_int)
  | Glitch_rail { wave; _ }
  | Trigger_corrupt { wave; _ }
  | Token_loss { wave; _ }
  | Token_dup { wave; _ } ->
      (wave, wave)

let site = function
  | Stuck_rail { gate; _ }
  | Glitch_rail { gate; _ }
  | Token_loss { gate; _ }
  | Token_dup { gate; _ }
  | Trigger_corrupt { master = gate; _ } ->
      gate

let set_rail rail b (r : Ledr.rails) =
  match rail with V -> { r with Ledr.v = b } | T -> { r with Ledr.t = b }

let flip_rail rail (r : Ledr.rails) =
  match rail with V -> { r with Ledr.v = not r.Ledr.v } | T -> { r with Ledr.t = not r.Ledr.t }

let hooks fault =
  let h = Rail_sim.no_hooks in
  match fault with
  | Stuck_rail { gate; rail; value } ->
      {
        h with
        Rail_sim.on_latch =
          (fun ~wave:_ ~gate:g r -> if g = gate then set_rail rail value r else r);
      }
  | Glitch_rail { gate; rail; wave } ->
      {
        h with
        Rail_sim.on_latch =
          (fun ~wave:w ~gate:g r -> if g = gate && w = wave then flip_rail rail r else r);
      }
  | Trigger_corrupt { master; wave; forced } ->
      {
        h with
        Rail_sim.trigger_seen =
          (fun ~wave:w ~master:m v -> if m = master && w = wave then forced else v);
      }
  | Token_loss { gate; wave } ->
      { h with Rail_sim.drop_fire = (fun ~wave:w ~gate:g -> g = gate && w = wave) }
  | Token_dup { gate; wave } ->
      { h with Rail_sim.extra_fire = (fun ~wave:w ~gate:g -> g = gate && w = wave) }

let enumerate pl ~waves =
  if waves < 1 then invalid_arg "Fault.enumerate: waves must be positive";
  (* Transient faults strike mid-campaign so both earlier and later waves can
     witness the consequences. *)
  let mid = waves / 2 in
  let faults = ref [] in
  let add f = faults := f :: !faults in
  let stuck_both gate =
    List.iter
      (fun rail ->
        add (Stuck_rail { gate; rail; value = false });
        add (Stuck_rail { gate; rail; value = true }))
      [ V; T ]
  in
  Array.iteri
    (fun i g ->
      match g.Pl.kind with
      | Pl.Sink _ -> () (* sinks drive no rails *)
      | Pl.Source _ | Pl.Const_source _ | Pl.Register _ -> stuck_both i
      | Pl.Gate _ | Pl.Trigger _ ->
          stuck_both i;
          add (Glitch_rail { gate = i; rail = V; wave = mid });
          add (Glitch_rail { gate = i; rail = T; wave = mid });
          add (Token_loss { gate = i; wave = mid });
          add (Token_dup { gate = i; wave = mid });
          if Pl.ee pl i <> None then begin
            add (Trigger_corrupt { master = i; wave = mid; forced = true });
            add (Trigger_corrupt { master = i; wave = mid; forced = false })
          end)
    (Pl.gates pl);
  List.rev !faults
