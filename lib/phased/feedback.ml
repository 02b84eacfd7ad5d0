module Mg = Ee_markedgraph.Marked_graph

type analysis = {
  total_feedbacks : int;
  removed : (int * int) list;
  graph : Mg.t;
}

(* The arcs of [Flat.marked_graph], data and feedback apart so the feedback
   arcs can be deleted one at a time, each list in reverse graph order
   (per gate ascending, the trigger first). *)
let arcs_of pl =
  let f = Flat.of_pl ~caller:"Feedback.analyze" pl in
  let data = ref [] and feedback = ref [] in
  Flat.iter_slots f (fun i j ->
      let src = f.producer.(j) and tok = Flat.token f j in
      data := (src, i, tok) :: !data;
      if src <> i then feedback := (i, src, 1 - tok) :: !feedback);
  (!data, !feedback)

let analyze pl =
  let nodes = Array.length (Pl.gates pl) in
  let data, feedback = arcs_of pl in
  let total_feedbacks = List.length feedback in
  let live_safe arcs =
    let g = Mg.make ~nodes ~arcs in
    Mg.is_live g && Mg.is_safe g
  in
  (* Greedily drop feedback arcs whose removal preserves both properties.
     The kept list shrinks monotonically, so one forward pass suffices:
     removing an arc never makes a previously-unremovable arc removable
     "for free" to re-test (it only removes cycles, making later removals
     harder, not easier). *)
  let removed = ref [] in
  let kept = ref [] in
  let remaining = ref feedback in
  let rec go () =
    match !remaining with
    | [] -> ()
    | ((d, s, _tok) as arc) :: rest ->
        remaining := rest;
        let candidate_arcs = data @ List.rev !kept @ !remaining in
        if live_safe candidate_arcs then removed := (d, s) :: !removed
        else kept := arc :: !kept;
        go ()
  in
  go ();
  let final = data @ List.rev !kept in
  let graph = Mg.make ~nodes ~arcs:final in
  { total_feedbacks; removed = List.rev !removed; graph }

let savings_percent a =
  if a.total_feedbacks = 0 then 0.
  else 100. *. float_of_int (List.length a.removed) /. float_of_int a.total_feedbacks
