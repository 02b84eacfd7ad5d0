module Tt = Ee_logic.Truthtab
module Trigger = Ee_core.Trigger

type point = {
  pt_subset : int;
  pt_cubes : int;
  pt_coverage_count : int;
  pt_coverage : float;
  pt_exact : bool;
}

let dominates a b =
  a.pt_cubes <= b.pt_cubes
  && a.pt_coverage_count >= b.pt_coverage_count
  && (a.pt_cubes < b.pt_cubes || a.pt_coverage_count > b.pt_coverage_count)

let non_dominated pts =
  List.filter (fun p -> not (List.exists (fun q -> dominates q p) pts)) pts

(* The cube that adds the most uncovered minterms, ties to the earliest;
   [None] once no cube adds any (so a picked cube is never picked again). *)
let best_gain covered tables =
  let count = Tt.count_ones covered in
  List.fold_left
    (fun best tbl ->
      let gain = Tt.count_ones (Tt.logor covered tbl) - count in
      match best with
      | Some (_, g) when g >= gain -> best
      | _ when gain = 0 -> best
      | _ -> Some (tbl, gain))
    None tables
  |> Option.map fst

(* The largest cube budget explored per subset. *)
let max_cubes = 8

let front tt =
  let arity = Tt.arity tt in
  let size = float_of_int (1 lsl arity) in
  let pts = ref [] in
  let add p =
    (* Keep one witness per (area, coverage) cell: the first subset found
       (subsets are walked ascending, so the witness is canonical). *)
    if
      not
        (List.exists
           (fun q -> q.pt_cubes = p.pt_cubes && q.pt_coverage_count = p.pt_coverage_count)
           !pts)
    then pts := p :: !pts
  in
  List.iter
    (fun (c : Trigger.wide) ->
      (* The ISOP of the trigger never mentions a variable the trigger does
         not depend on, so every cube stays within the subset.  A budget of
         [b] cubes keeps the first [b] greedy best-coverage picks. *)
      let tables =
        List.map
          (fun cube -> Tt.of_fun arity (Ee_logic.Cube.contains_minterm cube))
          (Ee_logic.Isop.cover c.Trigger.func)
      in
      let rec pick cubes covered =
        if cubes <= max_cubes then
          match best_gain covered tables with
          | None -> ()
          | Some tbl ->
              let covered = Tt.logor covered tbl in
              let count = Tt.count_ones covered in
              add
                {
                  pt_subset = c.Trigger.subset;
                  pt_cubes = cubes;
                  pt_coverage_count = count;
                  pt_coverage = 100. *. float_of_int count /. size;
                  pt_exact = count = c.Trigger.coverage_count;
                };
              pick (cubes + 1) covered
      in
      pick 1 (Tt.create arity))
    (Trigger.extract tt);
  non_dominated !pts
  |> List.sort (fun a b ->
         match compare a.pt_cubes b.pt_cubes with
         | 0 -> compare a.pt_subset b.pt_subset
         | x -> x)
