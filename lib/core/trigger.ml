module Lut4 = Ee_logic.Lut4
module Tt = Ee_logic.Truthtab

type 'f t = {
  subset : int;
  func : 'f;
  coverage_count : int;
  coverage : float;
}

type candidate = Lut4.t t

type wide = Tt.t t

(* The master is decided by an S-assignment iff it is 1 under every
   completion of the late inputs or 0 under every completion. *)
let decided tt ntt ~late = Tt.logor (Tt.forall tt ~mask:late) (Tt.forall ntt ~mask:late)

let trigger_function tt ~subset =
  decided tt (Tt.lognot tt) ~late:(Ee_util.Bits.mask (Tt.arity tt) land lnot subset)

let scan_function tt ~subset =
  Tt.of_fun (Tt.arity tt) (fun m -> Tt.constant_under tt ~subset ~assignment:m <> None)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: r -> x :: take (k - 1) r

let best k cands =
  List.stable_sort
    (fun a b ->
      match compare b.coverage_count a.coverage_count with
      | 0 -> compare a.subset b.subset
      | x -> x)
    cands
  |> take k

let prune ?(min_coverage = 0.) ?top_k cands =
  let kept =
    List.filter (fun c -> c.coverage_count > 0 && c.coverage >= min_coverage) cands
  in
  let kept =
    match top_k with
    | None -> kept
    | Some k ->
        if k < 0 then invalid_arg "Trigger.prune: top_k must be >= 0";
        best k kept
  in
  List.sort (fun a b -> compare a.subset b.subset) kept

let extract ?(min_coverage = 0.) ?top_k tt =
  let support = Tt.support tt and ntt = Tt.lognot tt in
  let size = float_of_int (1 lsl Tt.arity tt) in
  let all =
    List.filter_map
      (fun subset ->
        (* Inputs outside the support never change the master, so only the
           support's late part is quantified. *)
        let func = decided tt ntt ~late:(support land lnot subset) in
        let coverage_count = Tt.count_ones func in
        let coverage = 100. *. float_of_int coverage_count /. size in
        if coverage_count = 0 || coverage < min_coverage then None
        else Some { subset; func; coverage_count; coverage })
      (Ee_util.Bits.all_nonempty_proper_subsets support)
  in
  match top_k with None -> all | Some _ -> prune ?top_k all

(* The candidate list depends only on the 16-bit function (at most 2^16
   distinct keys), so whole-netlist synthesis memoizes it: large circuits
   reuse a few hundred distinct LUT functions.  The memo is an explicit
   context, not a process global — each caller, or each domain, owns its
   own table, so the per-candidate hot path never touches a lock.
   Callers that don't thread a context get their domain's default one. *)
module Memo = struct
  type t = (int, candidate list) Ee_util.Memo.t

  let create ?size () : t = Ee_util.Memo.create ?size ()

  let entries = Ee_util.Memo.entries

  let hits = Ee_util.Memo.hits

  let misses = Ee_util.Memo.misses

  let clear = Ee_util.Memo.clear

  let dls_key : (int, candidate list) Ee_util.Memo.Dls.key =
    Ee_util.Memo.Dls.key ~size:1024 ()

  let domain_default () = Ee_util.Memo.Dls.get dls_key
end

let candidates ?memo f =
  let memo = match memo with Some m -> m | None -> Memo.domain_default () in
  Ee_util.Memo.find_or_add memo (Lut4.to_int f) (fun () ->
      List.map
        (fun c -> { c with func = Lut4.of_truthtab c.func })
        (extract (Lut4.to_truthtab f)))

(* Variables: a = position 2, b = position 1, c = position 0; only the low
   three LUT inputs are used. *)
let full_adder_carry =
  let a = Lut4.var 2 and b = Lut4.var 1 and c = Lut4.var 0 in
  Lut4.logor (Lut4.logand c (Lut4.logor a b)) (Lut4.logand a b)

let full_adder_carry_trigger =
  let a = Lut4.var 2 and b = Lut4.var 1 in
  Lut4.lognot (Lut4.logxor a b)
