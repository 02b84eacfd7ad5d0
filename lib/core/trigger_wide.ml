module Tt = Ee_logic.Truthtab

type candidate = {
  subset : int;
  coverage_count : int;
  coverage : float;
  func : Tt.t;
}

let trigger_function tt ~subset =
  Tt.of_fun (Tt.arity tt) (fun m -> Tt.constant_under tt ~subset ~assignment:m <> None)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: r -> x :: take (k - 1) r

(* The shared selection rule: best coverage first, ties toward the
   numerically smallest subset, then back to subset order.  The search
   driver must apply exactly this rule for its pruned output to match the
   brute-force reference, so it is written once, over accessors, and
   [Driver.prune] calls it on its own records. *)
let prune_by ~subset ~coverage_count ~coverage ?(min_coverage = 0.) ?top_k cands =
  let kept =
    List.filter (fun c -> coverage_count c > 0 && coverage c >= min_coverage) cands
  in
  let kept =
    match top_k with
    | None -> kept
    | Some k ->
        if k < 0 then invalid_arg "Trigger_wide.prune: top_k must be >= 0";
        List.stable_sort
          (fun a b ->
            match compare (coverage_count b) (coverage_count a) with
            | 0 -> compare (subset a) (subset b)
            | x -> x)
          kept
        |> take k
  in
  List.sort (fun a b -> compare (subset a) (subset b)) kept

let prune ?min_coverage ?top_k cands =
  prune_by
    ~subset:(fun c -> c.subset)
    ~coverage_count:(fun c -> c.coverage_count)
    ~coverage:(fun c -> c.coverage)
    ?min_coverage ?top_k cands

let candidates ?(min_coverage = 0.) ?top_k tt =
  let support = Tt.support tt in
  let size = float_of_int (1 lsl Tt.arity tt) in
  let all =
    List.filter_map
      (fun subset ->
        let func = trigger_function tt ~subset in
        let coverage_count = Tt.count_ones func in
        (* Zero-value subsets are dropped immediately rather than
           materialized — at arity >= 5 most subsets decide nothing. *)
        if coverage_count = 0 then None
        else
          let coverage = 100. *. float_of_int coverage_count /. size in
          if coverage < min_coverage then None
          else Some { subset; coverage_count; coverage; func })
      (Ee_util.Bits.all_nonempty_proper_subsets support)
  in
  match top_k with None -> all | Some _ -> prune ?top_k all

let agrees_with_lut4 f =
  let tt = Ee_logic.Lut4.to_truthtab f in
  let wide = candidates tt in
  let narrow = Trigger.candidates f in
  List.length wide = List.length narrow
  && List.for_all2
       (fun (w : candidate) (n : Trigger.candidate) ->
         w.subset = n.Trigger.subset
         && w.coverage_count = n.Trigger.coverage_count
         && Tt.equal w.func (Ee_logic.Lut4.to_truthtab n.Trigger.func))
       wide narrow
