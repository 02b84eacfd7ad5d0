module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab
module Cube = Ee_logic.Cube
module Bdd = Ee_logic.Bdd
module Isop = Ee_logic.Isop

type ctx = {
  tt : Tt.t;
  ntt : Tt.t;
  arity : int;
  man : Bdd.manager;
  f : Bdd.t;
  nf : Bdd.t;
  seeds : Cube.t list Lazy.t;  (* ISOP covers of f and of ¬f, deduplicated *)
  ab_memo : (int, Bdd.t * Bdd.t) Hashtbl.t;
      (* subset -> (∀_{V∖S} f, ∀_{V∖S} ¬f); filled one quantified variable
         at a time, so the driver's size-descending walk pays a single
         one-variable quantification pair per subset instead of
         re-quantifying the whole complement from scratch. *)
  spec_memo : (int, Bdd.t) Hashtbl.t;  (* subset -> maximal trigger *)
}

let ctx tt =
  let man = Bdd.manager () in
  let f = Bdd.of_truthtab man tt in
  let nf = Bdd.lognot man f in
  (* Lazy: a pruned driver run may probe every subset yet synthesize none
     (or few), and the ISOP pair is the costliest part of context setup. *)
  let seeds =
    lazy (List.sort_uniq Cube.compare (Isop.cover tt @ Isop.cover (Tt.lognot tt)))
  in
  {
    tt;
    ntt = Tt.lognot tt;
    arity = Tt.arity tt;
    man;
    f;
    nf;
    seeds;
    ab_memo = Hashtbl.create 64;
    spec_memo = Hashtbl.create 64;
  }

let arity c = c.arity

let check_subset ctx ~subset =
  if subset <= 0 || subset land lnot (Bits.mask ctx.arity) <> 0 then
    invalid_arg "Cegis: subset must be a non-empty mask of master variables"

(* [∀_{V∖S} f] and [∀_{V∖S} ¬f], peeling one quantified variable per memo
   level: [∀_{V∖S} f = ∀_v ∀_{V∖(S∪{v})} f], so a subset reuses the
   already-quantified parent one variable up the lattice. *)
let rec ab_bdd ctx ~subset =
  match Hashtbl.find_opt ctx.ab_memo subset with
  | Some ab -> ab
  | None ->
      let others = Bits.mask ctx.arity land lnot subset in
      let ab =
        if others = 0 then (ctx.f, ctx.nf)
        else begin
          let v = Bits.fold_bits others (fun acc p -> max acc p) 0 in
          let pa, pb = ab_bdd ctx ~subset:(subset lor (1 lsl v)) in
          ( Bdd.forall_mask ctx.man pa ~mask:(1 lsl v),
            Bdd.forall_mask ctx.man pb ~mask:(1 lsl v) )
        end
      in
      Hashtbl.add ctx.ab_memo subset ab;
      ab

(* The maximal trigger over [subset], by quantification: the master is
   decided by an S-assignment iff it is 1 under every completion or 0 under
   every completion. *)
let spec_bdd ctx ~subset =
  check_subset ctx ~subset;
  match Hashtbl.find_opt ctx.spec_memo subset with
  | Some b -> b
  | None ->
      let a, nb = ab_bdd ctx ~subset in
      let b = Bdd.logor ctx.man a nb in
      Hashtbl.add ctx.spec_memo subset b;
      b

let spec_coverage ctx ~subset =
  Bdd.sat_count ctx.man (spec_bdd ctx ~subset) ~nvars:ctx.arity

(* cube ⟹ target, checked on the truth table: every completion of the
   cube's don't-cares evaluates to 1.  Submask enumeration is pure integer
   arithmetic and early-exits on the first 0 — far cheaper than a BDD
   implication apply at truth-table arities. *)
let cube_implies ctx ~care ~value target_tt =
  let dc = Bits.mask ctx.arity land lnot care in
  let rec go d =
    Tt.eval target_tt (value lor d) && (d = 0 || go ((d - 1) land dc))
  in
  go dc

(* Expand the counterexample minterm [a] to a prime-within-[subset] cube of
   the target ([f] or [¬f] as a truth table): start from the fully
   specified S-cube and drop literals in ascending variable order while the
   cube stays an implicant.  Ascending order makes the result
   deterministic; the result is exactly one of the cubes Table 2 would
   read off the Qm prime list of the target restricted to S-supported
   primes. *)
let expand ctx ~subset ~target_tt a =
  let care = ref subset and value = ref (a land subset) in
  Bits.iter_bits subset (fun v ->
      let care' = !care land lnot (1 lsl v) in
      let value' = !value land care' in
      if cube_implies ctx ~care:care' ~value:value' target_tt then begin
        care := care';
        value := value'
      end);
  Cube.make ~care:!care ~value:!value

type result = {
  subset : int;
  cubes : Cube.t list;
  func : Tt.t;
  coverage_count : int;
  exact : bool;
  iterations : int;
  seeded : int;
}

(* Compact view of the subset assignment space: position j of the compact
   index is subset variable [positions.(j)]. *)
let scatter positions mc =
  let full = ref 0 in
  Array.iteri
    (fun j p -> if (mc lsr j) land 1 = 1 then full := !full lor (1 lsl p))
    positions;
  !full

(* Greedy best-coverage cube subset of size <= budget, over the compact
   assignment space.  Deterministic: ties go to the earliest cube in the
   (sorted) pool. *)
let select_budget ~positions ~budget cubes =
  let j = Array.length positions in
  let tables =
    List.map
      (fun c -> (c, Tt.of_fun j (fun mc -> Cube.contains_minterm c (scatter positions mc))))
      cubes
  in
  let rec go acc covered remaining budget =
    if budget = 0 then List.rev acc
    else
      let best =
        List.fold_left
          (fun best (c, tbl) ->
            let gain = Tt.count_ones (Tt.logor covered tbl) - Tt.count_ones covered in
            match best with
            | Some (_, _, g) when g >= gain -> best
            | _ when gain = 0 -> best
            | _ -> Some (c, tbl, gain))
          None remaining
      in
      match best with
      | None -> List.rev acc
      | Some (c, tbl, _) ->
          go (c :: acc)
            (Tt.logor covered tbl)
            (List.filter (fun (c', _) -> not (Cube.equal c c')) remaining)
            (budget - 1)
  in
  go [] (Tt.const j false) tables budget

let synthesize ?(seed = true) ?max_cubes ctx ~subset =
  check_subset ctx ~subset;
  (* The BDD lattice is the verifier: it produces the canonical spec by
     quantification.  Tabulated once, every refinement round below is then
     one or two machine words of table arithmetic — no per-iteration BDD
     applies. *)
  let spec = Bdd.to_truthtab ctx.man (spec_bdd ctx ~subset) ~arity:ctx.arity in
  let cube_tt c = Tt.of_fun ctx.arity (fun m -> Cube.contains_minterm c m) in
  (* Seed the pool with the S-supported ISOP cubes of f and ¬f — every one
     implies the spec.  The loop then closes the gap: ISOP covers are
     irredundant but not prime-complete, so implicants whose care set fits
     inside S can be missing entirely.  [seed:false] starts from the empty
     pool — the loop alone is complete, and a caller synthesizing only a
     couple of subsets saves the ISOP pair, which costs more than the
     extra refinement rounds. *)
  let pool =
    ref
      (if seed then
         List.filter (fun c -> Cube.supported_on c ~subset) (Lazy.force ctx.seeds)
       else [])
  in
  let seeded = List.length !pool in
  let union cubes =
    List.fold_left (fun acc c -> Tt.logor acc (cube_tt c)) (Tt.create ctx.arity) cubes
  in
  let g = ref (union !pool) in
  let iterations = ref 0 in
  while not (Tt.equal !g spec) do
    incr iterations;
    (* g is always a union of spec implicants, so spec \ g is the exact
       counterexample set. *)
    let cex =
      match Tt.first_diff spec !g with Some a -> a | None -> assert false
    in
    (* [cex] satisfies the spec, so the master is constant over the
       completions of its S-assignment — one completion's value tells us
       which constant, no implication check needed. *)
    let target_tt = if Tt.eval ctx.tt (cex land subset) then ctx.tt else ctx.ntt in
    let c = expand ctx ~subset ~target_tt cex in
    pool := c :: !pool;
    g := Tt.logor !g (cube_tt c)
  done;
  (* Canonicalize the complete pool: drop strictly subsumed cubes, sort. *)
  let uniq = List.sort_uniq Cube.compare !pool in
  let maximal =
    List.filter
      (fun c ->
        not (List.exists (fun c' -> (not (Cube.equal c c')) && Cube.subsumes c' c) uniq))
      uniq
  in
  let positions = Array.of_list (Bits.indices subset) in
  let cubes, func, exact =
    match max_cubes with
    | Some b when List.length maximal > b ->
        let sel = select_budget ~positions ~budget:b maximal in
        let gt = union sel in
        (List.sort Cube.compare sel, gt, Tt.equal gt spec)
    | _ ->
        (* The loop ends with the pool's union equal to [spec], so the spec
           table is the trigger function. *)
        (maximal, spec, true)
  in
  {
    subset;
    cubes;
    func;
    coverage_count = Tt.count_ones func;
    exact;
    iterations = !iterations;
    seeded;
  }
