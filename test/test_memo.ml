(* Explicit memoization contexts (Ee_util.Memo) and the Trigger candidate
   contexts built on them: caching, counters, per-domain defaults, and the
   mutex-wrapped Shared flavour. *)

module Memo = Ee_util.Memo
module Trigger = Ee_core.Trigger
module Lut4 = Ee_logic.Lut4

exception Kaboom

let test_find_or_add () =
  let m = Memo.create () in
  let computed = ref 0 in
  let compute k () =
    incr computed;
    k * 10
  in
  Alcotest.(check int) "miss computes" 30 (Memo.find_or_add m 3 (compute 3));
  Alcotest.(check int) "hit is served from the table" 30 (Memo.find_or_add m 3 (compute 3));
  Alcotest.(check int) "compute ran once" 1 !computed;
  Alcotest.(check int) "second key computes" 70 (Memo.find_or_add m 7 (compute 7));
  Alcotest.(check int) "entries" 2 (Memo.entries m);
  Alcotest.(check int) "hits" 1 (Memo.hits m);
  Alcotest.(check int) "misses" 2 (Memo.misses m);
  Alcotest.(check bool) "mem" true (Memo.mem m 3);
  Alcotest.(check (option int)) "find_opt hit" (Some 70) (Memo.find_opt m 7);
  Alcotest.(check (option int)) "find_opt miss" None (Memo.find_opt m 8)

let test_raise_stores_nothing () =
  let m = Memo.create () in
  (match Memo.find_or_add m 1 (fun () -> raise Kaboom) with
  | _ -> Alcotest.fail "expected Kaboom"
  | exception Kaboom -> ());
  Alcotest.(check bool) "nothing stored for the raising key" false (Memo.mem m 1);
  Alcotest.(check int) "a later compute can still succeed" 5
    (Memo.find_or_add m 1 (fun () -> 5))

let test_clear () =
  let m = Memo.create () in
  ignore (Memo.find_or_add m 1 (fun () -> 1));
  ignore (Memo.find_or_add m 1 (fun () -> 1));
  Memo.clear m;
  Alcotest.(check int) "no entries" 0 (Memo.entries m);
  Alcotest.(check int) "hits reset" 0 (Memo.hits m);
  Alcotest.(check int) "misses reset" 0 (Memo.misses m)

(* Each domain sees its own context under the same key; an entry cached on
   one domain must not leak into another's default. *)
let test_dls_per_domain () =
  let key : (int, int) Memo.Dls.key = Memo.Dls.key () in
  let m = Memo.Dls.get key in
  Alcotest.(check bool) "get is stable on one domain" true (m == Memo.Dls.get key);
  ignore (Memo.find_or_add m 1 (fun () -> 100));
  let other_domain_saw =
    Domain.join
      (Domain.spawn (fun () ->
           let m' = Memo.Dls.get key in
           (Memo.mem m' 1, Memo.entries m')))
  in
  Alcotest.(check (pair bool int)) "sibling domain starts empty" (false, 0)
    other_domain_saw;
  Alcotest.(check bool) "entry still present on the owning domain" true (Memo.mem m 1)

let test_shared_across_domains () =
  let s : (int, int) Memo.Shared.t = Memo.Shared.create () in
  Alcotest.(check (option int)) "find_opt on empty" None (Memo.Shared.find_opt s 0);
  let computes = Atomic.make 0 in
  let worker () =
    List.init 50 (fun i ->
        let k = i mod 5 in
        Memo.Shared.find_or_add s k (fun () ->
            Atomic.incr computes;
            k * k))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let results = worker () :: List.map Domain.join domains in
  List.iter
    (fun r ->
      Alcotest.(check (list int)) "every domain reads consistent values"
        (List.init 50 (fun i ->
             let k = i mod 5 in
             k * k))
        r)
    results;
  Alcotest.(check int) "exactly the distinct keys are stored" 5 (Memo.Shared.entries s);
  (* Racing cold keys may compute more than once (by design: compute runs
     outside the lock) but never fewer times than the distinct keys. *)
  Alcotest.(check bool) "compute ran at least once per key" true (Atomic.get computes >= 5);
  Alcotest.(check (option int)) "find_opt after warmup" (Some 9) (Memo.Shared.find_opt s 3)

(* Trigger.candidates must return identical results through any context,
   and a context must actually absorb the caching (no cross-context
   leakage). *)
let test_trigger_memo_isolation () =
  let rng = Ee_util.Prng.create 42 in
  let funcs = List.init 20 (fun _ -> Lut4.random rng) in
  let fresh = Trigger.Memo.create () in
  let baseline = List.map (fun f -> Trigger.candidates f) funcs in
  let via_ctx = List.map (fun f -> Trigger.candidates ~memo:fresh f) funcs in
  Alcotest.(check bool) "explicit context yields identical candidates" true
    (baseline = via_ctx);
  Alcotest.(check bool) "context holds at most one entry per distinct function" true
    (Trigger.Memo.entries fresh
    <= List.length (List.sort_uniq compare (List.map Lut4.to_int funcs)));
  Alcotest.(check bool) "context saw every lookup" true
    (Trigger.Memo.hits fresh + Trigger.Memo.misses fresh = List.length funcs);
  let isolated = Trigger.Memo.create () in
  Alcotest.(check int) "a sibling context shares nothing" 0
    (Trigger.Memo.entries isolated);
  (* Repeat lookups hit: no new misses on the warm pass. *)
  let misses_before = Trigger.Memo.misses fresh in
  let hits_before = Trigger.Memo.hits fresh in
  ignore (List.map (fun f -> Trigger.candidates ~memo:fresh f) funcs);
  Alcotest.(check int) "warm pass adds no misses" misses_before
    (Trigger.Memo.misses fresh);
  Alcotest.(check int) "warm pass is all hits" (hits_before + List.length funcs)
    (Trigger.Memo.hits fresh)

let suite =
  ( "memo",
    [
      Alcotest.test_case "find_or_add caches and counts" `Quick test_find_or_add;
      Alcotest.test_case "raising compute stores nothing" `Quick test_raise_stores_nothing;
      Alcotest.test_case "clear resets entries and counters" `Quick test_clear;
      Alcotest.test_case "Dls contexts are per-domain" `Quick test_dls_per_domain;
      Alcotest.test_case "Shared context is domain-safe" `Quick test_shared_across_domains;
      Alcotest.test_case "trigger contexts isolate and agree" `Quick
        test_trigger_memo_isolation;
    ] )
