module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab
module Lut4 = Ee_logic.Lut4
module Pl = Ee_phased.Pl
module Throughput = Ee_perf.Throughput
module Synth = Ee_core.Synth
module Trigger = Ee_core.Trigger
module Mcr_select = Ee_core.Mcr_select

type options = {
  base : Mcr_select.options;
  top_k : int;
  max_groups : int;
  min_masters : int;
}

let default_options =
  { base = Mcr_select.default_options; top_k = 8; max_groups = 16; min_masters = 2 }

type shared_group = {
  sg_signals : int list;
  sg_masters : int list;
  sg_coverage : float;
  sg_trigger : Tt.t;
}

type report = {
  synth : Synth.report;
  lambda_no_ee : float;
  lambda_mcr : float;
  lambda : float;
  shared_groups : shared_group list;
  trials : int;
  fell_back : bool;
}

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: r -> x :: take (k - 1) r

(* The master's best [top_k] candidate subsets, by the shared prune rule. *)
let pruned_candidates ?memo ~top_k func =
  Trigger.candidates ?memo func
  |> List.stable_sort (fun (a : Trigger.candidate) b ->
         match compare b.Trigger.coverage_count a.Trigger.coverage_count with
         | 0 -> compare a.Trigger.subset b.Trigger.subset
         | x -> x)
  |> take top_k

(* A master's candidate trigger, re-expressed over the group's (sorted,
   distinct) signal list: variable [j] of the result is signal
   [List.nth signals j]. *)
let candidate_over_signals gates signals (master, (cand : Trigger.candidate)) =
  let fanin = (Pl.gates gates).(master).Pl.fanin in
  let positions = Bits.indices cand.Trigger.subset in
  let index_of s =
    let rec go j = function
      | [] -> invalid_arg "Search_select: signal not in group"
      | x :: r -> if x = s then j else go (j + 1) r
    in
    go 0 signals
  in
  let n = List.length signals in
  Tt.of_fun n (fun a ->
      let full =
        List.fold_left
          (fun acc p ->
            if Bits.get a (index_of fanin.(p)) then acc lor (1 lsl p) else acc)
          0 positions
      in
      Lut4.eval_bits cand.Trigger.func full)

(* Map the shared signal-level trigger back onto one master's input
   positions (full LUT4 arity; depends only on the candidate's subset).
   Duplicate fanin signals read the first carrying position — sound, since
   in any real evaluation duplicates carry equal values. *)
let request_for gates signals shared (master, (cand : Trigger.candidate)) =
  let fanin = (Pl.gates gates).(master).Pl.fanin in
  let positions = Bits.indices cand.Trigger.subset in
  let func =
    Lut4.of_truthtab
      (Tt.of_fun 4 (fun minterm ->
           let a =
             List.fold_left
               (fun acc (j, s) ->
                 let p = List.find (fun p -> fanin.(p) = s) positions in
                 if Bits.get minterm p then acc lor (1 lsl j) else acc)
               0
               (List.mapi (fun j s -> (j, s)) signals)
           in
           Tt.eval shared a))
  in
  let coverage_count = Lut4.count_ones func in
  ( coverage_count,
    {
      Pl.req_support = cand.Trigger.subset;
      req_func = func;
      req_coverage = 100. *. float_of_int coverage_count /. 16.;
      (* Shared triggers are chosen by trial re-analysis, not by Eq. 1;
         the recorded cost is the bookkeeping placeholder 0. *)
      req_cost = 0.;
    } )

let run ?(options = default_options) ?memo pl =
  let base = options.base in
  let lambda_no_ee = Mcr_select.lambda base pl in
  (* Phase A — the per-gate MCR plan is both the starting point and the
     floor the λ gate is measured against. *)
  let choices = Mcr_select.plan ~options:base ?memo pl in
  let base_requests =
    List.map (fun c -> (c.Synth.master, Synth.request c.Synth.chosen c.Synth.cost)) choices
  in
  let pl_mcr = Pl.with_ee pl base_requests in
  let a_mcr = Mcr_select.analyze base pl_mcr in
  let lambda_mcr = a_mcr.Throughput.lambda in
  (* Phase B — shared multi-master triggers.  Group masters by the signal
     set a candidate subset reads; for each promising group, synthesize
     the intersection trigger at the signal level, re-attach it to every
     member, and keep the plan only if the re-analyzed period does not
     regress.  Trigger gates merge structurally in [Pl.with_ee_shared]
     (canonical fanin order), so an accepted group costs one gate. *)
  let gates = Pl.gates pl in
  let critical = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace critical g ()) a_mcr.Throughput.critical_gates;
  let groups_tbl : (int list, (int * Trigger.candidate) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iteri
    (fun i g ->
      match g.Pl.kind with
      | Pl.Gate func ->
          List.iter
            (fun (cand : Trigger.candidate) ->
              if cand.Trigger.coverage >= base.Mcr_select.min_coverage then begin
                let signals =
                  List.sort_uniq compare
                    (List.map
                       (fun p -> g.Pl.fanin.(p))
                       (Bits.indices cand.Trigger.subset))
                in
                let cell =
                  match Hashtbl.find_opt groups_tbl signals with
                  | Some r -> r
                  | None ->
                      let r = ref [] in
                      Hashtbl.add groups_tbl signals r;
                      r
                in
                (* One membership per master per group: keep the best
                   candidate (they arrive best-first from the prune). *)
                if not (List.exists (fun (m, _) -> m = i) !cell) then
                  cell := (i, cand) :: !cell
              end)
            (pruned_candidates ?memo ~top_k:options.top_k func)
      | _ -> ())
    gates;
  let groups =
    Hashtbl.fold
      (fun signals members acc ->
        let members = List.sort (fun (a, _) (b, _) -> compare a b) !members in
        if List.length members >= max 2 options.min_masters then
          (signals, members) :: acc
        else acc)
      groups_tbl []
  in
  (* Deterministic priority: critical-cycle groups first, then larger
     groups, then higher summed coverage, then the signal list. *)
  let group_key (signals, members) =
    let crit = List.exists (fun (m, _) -> Hashtbl.mem critical m) members in
    let cov =
      List.fold_left (fun acc (_, c) -> acc + c.Trigger.coverage_count) 0 members
    in
    ((if crit then 0 else 1), -List.length members, -cov, signals)
  in
  let groups =
    List.sort (fun a b -> compare (group_key a) (group_key b)) groups
    |> take options.max_groups
  in
  let current_requests = ref base_requests in
  let current_pl = ref pl_mcr in
  let current_lambda = ref lambda_mcr in
  let accepted = ref [] in
  let shared_masters = Hashtbl.create 16 in
  let trials = ref 0 in
  List.iter
    (fun (signals, members) ->
      if not (List.exists (fun (m, _) -> Hashtbl.mem shared_masters m) members) then begin
        let shared =
          List.fold_left
            (fun acc mem -> Tt.logand acc (candidate_over_signals pl signals mem))
            (Tt.const (List.length signals) true)
            members
        in
        if Tt.count_ones shared > 0 then begin
          let reqs =
            List.filter_map
              (fun mem ->
                let cov, req = request_for pl signals shared mem in
                if
                  cov > 0
                  && 100. *. float_of_int cov /. 16. >= base.Mcr_select.min_coverage
                then Some (fst mem, cov, req)
                else None)
              members
          in
          if List.length reqs >= max 2 options.min_masters then begin
            incr trials;
            let masters = List.map (fun (m, _, _) -> m) reqs in
            let requests' =
              List.filter (fun (m, _) -> not (List.mem m masters)) !current_requests
              @ List.map (fun (m, _, req) -> (m, req)) reqs
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            let pl' = Pl.with_ee_shared pl requests' in
            let accept_at = !current_lambda *. (1. +. 1e-12) in
            let lambda' = Mcr_select.lambda ~warm:a_mcr ~cutoff:accept_at base pl' in
            if lambda' <= accept_at then begin
              current_requests := requests';
              current_pl := pl';
              current_lambda := min lambda' !current_lambda;
              List.iter (fun m -> Hashtbl.replace shared_masters m ()) masters;
              let mean_cov =
                100.
                *. (List.fold_left (fun acc (_, c, _) -> acc +. float_of_int c) 0. reqs
                   /. (16. *. float_of_int (List.length reqs)))
              in
              accepted :=
                {
                  sg_signals = signals;
                  sg_masters = masters;
                  sg_coverage = mean_cov;
                  sg_trigger = shared;
                }
                :: !accepted
            end
          end
        end
      end)
    groups;
  (* Phase C — the never-regress guard.  By construction every accepted
     trial kept λ at or below the MCR floor, so this only fires on float
     pathology; it still makes the guarantee unconditional. *)
  let fell_back = !current_lambda > lambda_mcr *. (1. +. 1e-9) in
  let final_pl, final_lambda =
    if fell_back then (pl_mcr, lambda_mcr) else (!current_pl, !current_lambda)
  in
  ( final_pl,
    {
      synth = Synth.make_report pl final_pl choices;
      lambda_no_ee;
      lambda_mcr;
      lambda = final_lambda;
      shared_groups = List.rev !accepted;
      trials = !trials;
      fell_back;
    } )
