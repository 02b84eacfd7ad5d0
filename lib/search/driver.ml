module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab
module Trigger_wide = Ee_core.Trigger_wide

type candidate = {
  subset : int;
  coverage_count : int;
  coverage : float;
  func : Tt.t;
  cubes : Ee_logic.Cube.t list;
  exact : bool;
}

type stats = {
  supports : int;
  probed : int;
  synthesized : int;
  bound_pruned : int;
  rank_skipped : int;
  iterations : int;
}

let prune ?min_coverage ?top_k cands =
  Trigger_wide.prune_by
    ~subset:(fun c -> c.subset)
    ~coverage_count:(fun c -> c.coverage_count)
    ~coverage:(fun c -> c.coverage)
    ?min_coverage ?top_k cands

let search ?(min_coverage = 0.) ?top_k ?max_cubes tt =
  let support = Tt.support tt in
  let arity = Tt.arity tt in
  let size = float_of_int (1 lsl arity) in
  let positions = Array.of_list (Bits.indices support) in
  let nsup = Array.length positions in
  let ctx = Cegis.ctx tt in
  (* Coverage is monotone in the support (S ⊆ S' ⟹ cov S <= cov S'), so a
     subset's spec coverage is bounded by the minimum over its parents.
     [bound] records, per visited subset, a sound upper bound: the exact
     spec coverage when probed, the inherited bound when skipped. *)
  let bound : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let parent_bound subset =
    Bits.fold_bits
      (support land lnot subset)
      (fun acc v ->
        match Hashtbl.find_opt bound (subset lor (1 lsl v)) with
        | Some b -> min acc b
        | None -> acc)
      (1 lsl arity)
  in
  (* Ring entries: subset, the exact coverage its probe reported, and —
     only when a cube budget forces eager synthesis — the realized result.
     Without a budget, synthesis is deferred to the final winners: the
     probe's spec coverage IS the synthesized coverage, so ranking needs no
     cube work and displaced candidates cost nothing. *)
  let kept = ref [] in
  let nkept = ref 0 in
  (* Worst kept coverage a candidate must beat to enter a full top-k ring;
     0 while the ring has room.  Ties are not pruned on — a later,
     numerically smaller subset wins a coverage tie under the prune rule. *)
  let kth_best () =
    match top_k with
    | Some k when !nkept >= k && k > 0 ->
        let sorted =
          List.sort (fun (_, a, _) (_, b, _) -> compare b a) !kept
        in
        let _, c, _ = List.nth sorted (k - 1) in
        c
    | _ -> 0
  in
  let probed = ref 0
  and synthesized = ref 0
  and bound_pruned = ref 0
  and rank_skipped = ref 0
  and iterations = ref 0 in
  let supports = ref 0 in
  (* Largest supports first, so every child sees its parents' bounds. *)
  for size_j = nsup - 1 downto 1 do
    List.iter
      (fun compact_mask ->
        incr supports;
        let subset =
          Bits.fold_bits compact_mask (fun acc j -> acc lor (1 lsl positions.(j))) 0
        in
        let ub = parent_bound subset in
        let below_min ub = 100. *. float_of_int ub /. size < min_coverage in
        if ub = 0 || below_min ub || ub < kth_best () then begin
          incr bound_pruned;
          Hashtbl.replace bound subset ub
        end
        else begin
          let cov = Cegis.spec_coverage ctx ~subset in
          incr probed;
          Hashtbl.replace bound subset cov;
          if cov = 0 || below_min cov || cov < kth_best () then incr rank_skipped
          else begin
            (* A cube budget can realize less than the spec coverage, and
               the selection rule ranks realized coverage — so budgeted
               runs must synthesize eagerly.  Unbudgeted runs defer. *)
            let r =
              match max_cubes with
              | None -> None
              | Some _ ->
                  let r = Cegis.synthesize ?max_cubes ctx ~subset in
                  incr synthesized;
                  iterations := !iterations + r.Cegis.iterations;
                  Some r
            in
            let cov =
              match r with Some r -> r.Cegis.coverage_count | None -> cov
            in
            kept := (subset, cov, r) :: !kept;
            incr nkept
          end
        end)
      (Bits.subsets_of_size nsup size_j)
  done;
  let winners =
    let pseudo =
      List.map
        (fun (subset, cov, r) ->
          ( {
              subset;
              coverage_count = cov;
              coverage = 100. *. float_of_int cov /. size;
              func = tt (* placeholder; replaced below *);
              cubes = [];
              exact = true;
            },
            r ))
        !kept
    in
    let picked =
      prune ~min_coverage ?top_k (List.map fst pseudo)
    in
    (* The ISOP seed pair costs more than a few unseeded refinement loops;
       it amortizes only across enough synthesis calls.  The deferred path
       knows that count exactly. *)
    let deferred =
      List.length (List.filter (fun c -> List.assq c pseudo = None) picked)
    in
    let seed = deferred >= 4 in
    List.map
      (fun c ->
        let r =
          match List.assq c pseudo with
          | Some r -> r
          | None ->
              let r = Cegis.synthesize ~seed ctx ~subset:c.subset in
              incr synthesized;
              iterations := !iterations + r.Cegis.iterations;
              r
        in
        {
          subset = r.Cegis.subset;
          coverage_count = r.Cegis.coverage_count;
          coverage = 100. *. float_of_int r.Cegis.coverage_count /. size;
          func = r.Cegis.func;
          cubes = r.Cegis.cubes;
          exact = r.Cegis.exact;
        })
      picked
  in
  ( winners,
    {
      supports = !supports;
      probed = !probed;
      synthesized = !synthesized;
      bound_pruned = !bound_pruned;
      rank_skipped = !rank_skipped;
      iterations = !iterations;
    } )

let candidates ?min_coverage ?top_k ?max_cubes tt =
  fst (search ?min_coverage ?top_k ?max_cubes tt)

let agrees_with_brute ?min_coverage ?top_k tt =
  let searched = candidates ?min_coverage ?top_k tt in
  let brute = Trigger_wide.candidates ?min_coverage ?top_k tt in
  List.length searched = List.length brute
  && List.for_all2
       (fun (s : candidate) (b : Trigger_wide.candidate) ->
         s.subset = b.Trigger_wide.subset
         && s.coverage_count = b.Trigger_wide.coverage_count
         && Tt.equal s.func b.Trigger_wide.func
         && s.exact)
       searched brute
