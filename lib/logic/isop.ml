(* Minato–Morreale ISOP over dense truth tables.  [isop l u ~var] computes
   an irredundant cover C with l <= cover(C) <= u, recursing on variables
   from [var] upward; cubes are accumulated with their literals. *)

let rec isop nvars l u var =
  if Truthtab.is_const l = Some false then ([], l)
  else if Truthtab.is_const u = Some true then ([ Cube.universe ], Truthtab.const nvars true)
  else begin
    assert (var < nvars);
    let l0, l1 = Truthtab.cofactor_pair l ~var in
    let u0, u1 = Truthtab.cofactor_pair u ~var in
    (* Minterms that must be covered by cubes containing the literal. *)
    let lx0 = Truthtab.logand l0 (Truthtab.lognot u1) in
    let lx1 = Truthtab.logand l1 (Truthtab.lognot u0) in
    let c0, f0 = isop nvars lx0 u0 (var + 1) in
    let c1, f1 = isop nvars lx1 u1 (var + 1) in
    (* What remains for literal-free cubes. *)
    let lnew =
      Truthtab.logor
        (Truthtab.logand l0 (Truthtab.lognot f0))
        (Truthtab.logand l1 (Truthtab.lognot f1))
    in
    let c2, f2 = isop nvars lnew (Truthtab.logand u0 u1) (var + 1) in
    let add_literal value cube =
      Cube.make
        ~care:(Cube.care cube lor (1 lsl var))
        ~value:(Cube.value cube lor if value then 1 lsl var else 0)
    in
    let cubes =
      List.map (add_literal false) c0 @ List.map (add_literal true) c1 @ c2
    in
    let x = Truthtab.var nvars var in
    let cover =
      Truthtab.logor f2
        (Truthtab.logor
           (Truthtab.logand (Truthtab.lognot x) f0)
           (Truthtab.logand x f1))
    in
    (cubes, cover)
  end

let cover tt =
  let nvars = Truthtab.arity tt in
  let cubes, covered = isop nvars tt tt 0 in
  assert (Truthtab.equal covered tt);
  List.sort Cube.compare cubes

type choice = Const of bool | On of Cube.t list | Off of Cube.t list

let choose tt =
  match Truthtab.is_const tt with
  | Some v -> Const v
  | None ->
      let on = cover tt and off = cover (Truthtab.lognot tt) in
      if List.length off < List.length on then Off off else On on

let is_irredundant tt cubes =
  let nvars = Truthtab.arity tt in
  let union cs = Qm.cubes_to_truthtab ~nvars cs in
  Truthtab.equal (union cubes) tt
  && List.for_all
       (fun c ->
         let rest = List.filter (fun c' -> not (Cube.equal c c')) cubes in
         not (Truthtab.equal (union rest) tt))
       cubes
