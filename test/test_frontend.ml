(* The arbitrary-netlist frontend: BLIF dialect coverage, AIGER golden
   files and round-trips, the remapper's equivalence guarantee, the
   corpus generator, and the wire format of the serve [import] command. *)

module Frontend = Ee_frontend.Frontend
module Aiger = Ee_frontend.Aiger
module Corpus = Ee_frontend.Corpus
module Remap = Ee_frontend.Remap
module Netlist = Ee_netlist.Netlist
module Equiv = Ee_netlist.Equiv
module Blif = Ee_export.Blif
module Base64 = Ee_util.Base64
module Prng = Ee_util.Prng
module Json = Ee_export.Json
module Protocol = Ee_serve.Protocol

let verdict_string = function
  | Equiv.Equivalent -> "equivalent"
  | Equiv.Output_mismatch o -> "output mismatch on " ^ o
  | Equiv.Register_mismatch -> "register mismatch"
  | Equiv.Port_mismatch p -> "port mismatch on " ^ p

let check_equiv name a b =
  match Equiv.check a b with
  | Equiv.Equivalent -> ()
  | v -> Alcotest.failf "%s: %s" name (verdict_string v)

(* Evaluate a combinational netlist on one input vector, values given by
   port name so reordering across parse/remap does not matter. *)
let eval nl values =
  let vec =
    Array.map (fun (n, _) -> List.assoc n values) (Netlist.inputs nl)
  in
  let outs, _ = Netlist.step nl (Netlist.initial_state nl) vec in
  Array.to_list
    (Array.mapi (fun k (n, _) -> (n, outs.(k))) (Netlist.outputs nl))

(* ------------------------------------------------------------------ *)
(* Format detection                                                   *)
(* ------------------------------------------------------------------ *)

let test_detect () =
  Alcotest.(check bool) "aag" true (Frontend.detect "aag 1 0 1 1 0\n" = Frontend.Aiger_ascii);
  Alcotest.(check bool) "aig" true (Frontend.detect "aig 0 0 0 0 0\n" = Frontend.Aiger_binary);
  Alcotest.(check bool) "blif" true (Frontend.detect ".model m\n" = Frontend.Blif);
  Alcotest.(check bool) "of_string blif" true (Frontend.format_of_string "blif" = Some Frontend.Blif);
  Alcotest.(check bool) "of_string aiger alias" true
    (Frontend.format_of_string "aiger" = Some Frontend.Aiger_ascii);
  Alcotest.(check bool) "of_string junk" true (Frontend.format_of_string "verilog" = None);
  List.iter
    (fun f ->
      Alcotest.(check bool) "to/of round-trip" true
        (Frontend.format_of_string (Frontend.format_to_string f) = Some f))
    [ Frontend.Blif; Frontend.Aiger_ascii; Frontend.Aiger_binary ];
  (* An explicit AIGER format must match the payload's magic. *)
  match Frontend.parse ~format:Frontend.Aiger_binary "aag 0 0 0 0 0\n" with
  | Ok _ -> Alcotest.fail "aag payload accepted as binary AIGER"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* BLIF dialect: continuations, constant covers, wide names, subckt   *)
(* ------------------------------------------------------------------ *)

let test_blif_continuation_and_const () =
  let text =
    ".model m\n\
     .inputs a b c \\\n\
     \ d e f\n\
     .outputs y k1 k0\n\
     .names a b c \\\n\
     \ d e f y\n\
     111--- 1\n\
     ---111 1\n\
     .names k1\n\
     1\n\
     .names k0\n\
     .end\n"
  in
  let nl = Frontend.parse_exn text in
  let base = [ ("a", false); ("b", false); ("c", false); ("d", false); ("e", false); ("f", false) ] in
  let with_ ons = List.map (fun (n, _) -> (n, List.mem n ons)) base in
  let out vals n = List.assoc n (eval nl vals) in
  Alcotest.(check bool) "abc cube" true (out (with_ [ "a"; "b"; "c" ]) "y");
  Alcotest.(check bool) "def cube" true (out (with_ [ "d"; "e"; "f" ]) "y");
  Alcotest.(check bool) "off-set" false (out (with_ [ "a"; "b"; "d" ]) "y");
  Alcotest.(check bool) "const 1 cover" true (out base "k1");
  Alcotest.(check bool) "empty cover is const 0" false (out base "k0")

let test_wide_names_semantics () =
  (* An 8-input cover must decompose into LUT4s that compute the same
     function; check against a direct evaluation of the cubes. *)
  let text =
    ".model wide\n\
     .inputs x0 x1 x2 x3 x4 x5 x6 x7\n\
     .outputs y\n\
     .names x0 x1 x2 x3 x4 x5 x6 x7 y\n\
     11------ 1\n\
     --11---- 1\n\
     ----1111 1\n\
     .end\n"
  in
  let nl = Frontend.parse_exn text in
  List.iter
    (fun i ->
      let fanin =
        match Netlist.node nl i with
        | Netlist.Lut { fanin; _ } -> Array.length fanin
        | _ -> 0
      in
      Alcotest.(check bool) "lut4 arity" true (fanin <= 4))
    (Netlist.lut_ids nl);
  let rng = Prng.create 41 in
  for _ = 1 to 64 do
    let v = Array.init 8 (fun _ -> Prng.bool rng) in
    let expect = (v.(0) && v.(1)) || (v.(2) && v.(3)) || (v.(4) && v.(5) && v.(6) && v.(7)) in
    let vals = List.init 8 (fun k -> (Printf.sprintf "x%d" k, v.(k))) in
    Alcotest.(check bool) "wide cover value" expect (List.assoc "y" (eval nl vals))
  done

let test_subckt_flatten () =
  let text =
    ".model top\n\
     .inputs a b c\n\
     .outputs y\n\
     .subckt and2 p=a q=b r=t\n\
     .subckt and2 p=t q=c r=y\n\
     .end\n\
     .model and2\n\
     .inputs p q\n\
     .outputs r\n\
     .names p q r\n\
     11 1\n\
     .end\n"
  in
  let nl = Frontend.parse_exn ~top:"top" text in
  for m = 0 to 7 do
    let bit k = m land (1 lsl k) <> 0 in
    let vals = [ ("a", bit 0); ("b", bit 1); ("c", bit 2) ] in
    Alcotest.(check bool)
      (Printf.sprintf "and3 %d" m)
      (bit 0 && bit 1 && bit 2)
      (List.assoc "y" (eval nl vals))
  done

let test_blif_driven_input () =
  (* A primary input that a .names or .latch also drives has two drivers;
     reading it as either one would compute a different circuit. *)
  List.iter
    (fun (what, text, line) ->
      match Frontend.parse ~format:Frontend.Blif text with
      | Ok _ -> Alcotest.failf "%s: expected Error" what
      | Error msg ->
          Alcotest.(check bool) (what ^ ": driven twice") true
            (Astring_contains.contains msg "driven twice");
          Alcotest.(check bool) (what ^ ": driver's line") true
            (Astring_contains.contains msg (Printf.sprintf "line %d" line)))
    [
      ( ".names drives an input",
        ".inputs a b\n.outputs y\n.names b a\n0 1\n.names a y\n1 1\n",
        3 );
      ( ".latch drives an input",
        ".inputs a\n.outputs y\n.latch a a 1\n.names a y\n1 1\n",
        3 );
    ]

(* ------------------------------------------------------------------ *)
(* AIGER golden files                                                 *)
(* ------------------------------------------------------------------ *)

let test_aiger_golden_ascii () =
  (* One latch feeding back its own negation: a toggle starting at 0.
     Outputs expose both polarities; symbols name all three ports. *)
  let text = "aag 1 0 1 2 0\n2 3\n2\n3\nl0 q\no0 q_now\no1 q_bar\n" in
  let nl = Frontend.parse_exn text in
  Alcotest.(check int) "dffs" 1 (Netlist.dff_count nl);
  Alcotest.(check int) "inputs" 0 (Array.length (Netlist.inputs nl));
  let names = Array.to_list (Array.map fst (Netlist.outputs nl)) in
  Alcotest.(check (list string)) "output symbols" [ "q_now"; "q_bar" ] names;
  let st = ref (Netlist.initial_state nl) in
  let expect = [ (false, true); (true, false); (false, true); (true, false) ] in
  List.iter
    (fun (q, qb) ->
      let outs, st' = Netlist.step nl !st [||] in
      st := st';
      Alcotest.(check bool) "q" q outs.(0);
      Alcotest.(check bool) "~q" qb outs.(1))
    expect

let test_aiger_golden_binary () =
  (* aig 3 2 0 1 1: two implicit inputs (literals 2 and 4), one AND with
     lhs 6 = 4 AND 2, deltas (6-4, 4-2) = (2, 2), output literal 6. *)
  let text = "aig 3 2 0 1 1\n6\n\x02\x02i0 a\ni1 b\no0 y\n" in
  let nl = Frontend.parse_exn text in
  Alcotest.(check int) "luts" 1 (Netlist.lut_count nl);
  for m = 0 to 3 do
    let vals = [ ("a", m land 1 <> 0); ("b", m land 2 <> 0) ] in
    Alcotest.(check bool)
      (Printf.sprintf "and %d" m)
      (m = 3)
      (List.assoc "y" (eval nl vals))
  done

let test_aiger_rejects () =
  List.iter
    (fun text ->
      match Frontend.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "aag 1 1 0 1\n2\n2\n" (* short header *);
      "aag 0 0 0 0 0 1\n2\n" (* bad-state section *);
      "aag 1 1 0 1 0\n2\n5\n" (* literal out of range *);
      "aag 2 1 0 1 1\n2\n4\n4 4 6\n" (* cyclic / forward AND *);
      "aig 1 2 0 0 0\n" (* M < I + L + A *);
    ]

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                              *)
(* ------------------------------------------------------------------ *)

let test_aiger_roundtrip () =
  for seed = 0 to 7 do
    let rng = Prng.create (100 + seed) in
    let nl = Corpus.random_netlist rng ~inputs:5 ~luts:18 ~dffs:(seed mod 3) in
    let back_a = Frontend.parse_exn (Aiger.to_ascii nl) in
    check_equiv (Printf.sprintf "ascii seed %d" seed) nl back_a;
    let back_b = Frontend.parse_exn (Aiger.to_binary nl) in
    check_equiv (Printf.sprintf "binary seed %d" seed) nl back_b;
    (* The two writers agree on names: ports survive the symbol table. *)
    let names nl = List.sort compare (Array.to_list (Array.map fst (Netlist.inputs nl))) in
    Alcotest.(check (list string)) "input names" (names nl) (names back_b)
  done

let test_remap_equivalence () =
  for seed = 0 to 5 do
    let rng = Prng.create (200 + seed) in
    let nl = Corpus.random_netlist rng ~inputs:6 ~luts:24 ~dffs:2 in
    let mapped = Remap.run nl in
    check_equiv (Printf.sprintf "remap seed %d" seed) nl mapped;
    Alcotest.(check bool) "remap does not add state" true
      (Netlist.dff_count mapped = Netlist.dff_count nl)
  done

(* ------------------------------------------------------------------ *)
(* Corpus generator                                                   *)
(* ------------------------------------------------------------------ *)

let test_corpus_all_pass () =
  let entries = Corpus.generate ~seed:2002 ~n:30 in
  Alcotest.(check int) "entry count" 30 (List.length entries);
  List.iter
    (fun (e : Corpus.entry) ->
      match Corpus.check e with
      | Corpus.Passed _ -> ()
      | o -> Alcotest.failf "%s: %s" e.Corpus.e_name (Corpus.outcome_class o))
    entries;
  (* All five flavors are present in a 30-entry slice. *)
  List.iter
    (fun flavor ->
      Alcotest.(check bool) (flavor ^ " present") true
        (List.exists
           (fun (e : Corpus.entry) ->
             Astring_contains.contains e.Corpus.e_name flavor)
           entries))
    [ "blif"; "aag"; "aig"; "wide"; "subckt" ]

let test_corpus_deterministic () =
  let a = Corpus.generate ~seed:5 ~n:10 and b = Corpus.generate ~seed:5 ~n:10 in
  List.iter2
    (fun (x : Corpus.entry) (y : Corpus.entry) ->
      Alcotest.(check string) "name" x.Corpus.e_name y.Corpus.e_name;
      Alcotest.(check string) "text" x.Corpus.e_text y.Corpus.e_text)
    a b

(* ------------------------------------------------------------------ *)
(* Delay-driven mapping                                               *)
(* ------------------------------------------------------------------ *)

let test_delay_mapper_itc99 () =
  List.iter
    (fun id ->
      let d = (Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build () in
      let tm = Ee_rtl.Techmap.run_rtl d in
      let dm = Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Delay d in
      Alcotest.(check bool)
        (Printf.sprintf "%s depth %d <= techmap %d" id (Netlist.depth dm) (Netlist.depth tm))
        true
        (Netlist.depth dm <= Netlist.depth tm);
      check_equiv id tm dm)
    [ "b01"; "b02"; "b03"; "b06" ]

(* ------------------------------------------------------------------ *)
(* Base64 and name escaping (transport plumbing)                      *)
(* ------------------------------------------------------------------ *)

let test_base64 () =
  (* RFC 4648 vectors. *)
  List.iter
    (fun (plain, enc) ->
      Alcotest.(check string) ("encode " ^ plain) enc (Base64.encode plain);
      match Base64.decode enc with
      | Ok p -> Alcotest.(check string) ("decode " ^ enc) plain p
      | Error m -> Alcotest.failf "decode %s: %s" enc m)
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v"); ("foob", "Zm9vYg==") ];
  (* Every byte value survives. *)
  let all = String.init 256 Char.chr in
  (match Base64.decode (Base64.encode all) with
  | Ok s -> Alcotest.(check string) "all bytes" all s
  | Error m -> Alcotest.fail m);
  (* Whitespace inside is tolerated; malformed input is not. *)
  (match Base64.decode "Zm9v\nYg==" with
  | Ok s -> Alcotest.(check string) "whitespace skipped" "foob" s
  | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match Base64.decode bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "Zg="; "Z!g="; "=Zg="; "Zg==Zg==" ]

let test_name_escaping () =
  List.iter
    (fun name ->
      let esc = Blif.escape_name name in
      Alcotest.(check bool) "no raw space" false (String.contains esc ' ');
      Alcotest.(check string) "round-trip" name (Blif.unescape_name esc))
    [ "plain"; "with space"; "back\\slash"; "hash#eq=dash-"; "sig[3]" ];
  (* And end to end: a netlist with hostile port names survives
     to_blif -> parse with names intact. *)
  let b = Netlist.builder () in
  let a = Netlist.add_input b "in put" in
  let l = Netlist.add_lut b (Ee_logic.Lut4.of_truthtab (Ee_logic.Truthtab.var 1 0)) [| a |] in
  Netlist.set_output b "out#1" l;
  let nl = Netlist.finalize b in
  let nl' = Frontend.parse_exn (Blif.to_blif nl) in
  Alcotest.(check (list string)) "input names"
    [ "in put" ]
    (Array.to_list (Array.map fst (Netlist.inputs nl')));
  Alcotest.(check (list string)) "output names"
    [ "out#1" ]
    (Array.to_list (Array.map fst (Netlist.outputs nl')))

(* ------------------------------------------------------------------ *)
(* Serve protocol: the import command's wire format                   *)
(* ------------------------------------------------------------------ *)

let test_protocol_import () =
  (* Decode: base64 payload, explicit format, remap off. *)
  let line =
    Printf.sprintf
      "{\"cmd\":\"import\",\"text\":%s,\"encoding\":\"base64\",\"format\":\"aig\",\"remap\":false}"
      (Json.to_string (Json.String (Base64.encode "aig 0 0 0 0 0\n")))
  in
  (match Protocol.parse_line line with
  | Ok { Protocol.req = Protocol.Import { text; format; remap; _ }; _ } ->
      Alcotest.(check string) "decoded text" "aig 0 0 0 0 0\n" text;
      Alcotest.(check bool) "format" true (format = Some Frontend.Aiger_binary);
      Alcotest.(check bool) "remap" false remap
  | Ok _ -> Alcotest.fail "wrong request"
  | Error m -> Alcotest.fail m);
  (* Encode: a binary payload rides base64 and survives a round trip. *)
  let rng = Prng.create 77 in
  let nl = Corpus.random_netlist rng ~inputs:4 ~luts:10 ~dffs:1 in
  let binary = Aiger.to_binary nl in
  let env =
    {
      Protocol.id = Json.Null;
      deadline_s = None;
      req =
        Protocol.Import
          {
            text = binary;
            format = None;
            remap = true;
            search = false;
            spec = Ee_engine.Engine.default_spec;
          };
    }
  in
  let encoded = Json.to_string (Protocol.envelope_to_json env) in
  Alcotest.(check bool) "base64 marker" true
    (Astring_contains.contains encoded "\"encoding\":\"base64\"");
  match Protocol.parse_line encoded with
  | Ok { Protocol.req = Protocol.Import { text; _ }; _ } ->
      Alcotest.(check string) "payload intact" binary text
  | Ok _ -> Alcotest.fail "wrong request"
  | Error m -> Alcotest.fail m

let suite =
  ( "frontend",
    [
      Alcotest.test_case "format detection" `Quick test_detect;
      Alcotest.test_case "blif continuations and const covers" `Quick test_blif_continuation_and_const;
      Alcotest.test_case "wide names decomposition" `Quick test_wide_names_semantics;
      Alcotest.test_case "subckt flattening" `Quick test_subckt_flatten;
      Alcotest.test_case "blif rejects a driven input" `Quick test_blif_driven_input;
      Alcotest.test_case "aiger golden ascii" `Quick test_aiger_golden_ascii;
      Alcotest.test_case "aiger golden binary" `Quick test_aiger_golden_binary;
      Alcotest.test_case "aiger rejects malformed input" `Quick test_aiger_rejects;
      Alcotest.test_case "aiger round-trips" `Quick test_aiger_roundtrip;
      Alcotest.test_case "remap equivalence" `Quick test_remap_equivalence;
      Alcotest.test_case "corpus entries all pass" `Quick test_corpus_all_pass;
      Alcotest.test_case "corpus is deterministic" `Quick test_corpus_deterministic;
      Alcotest.test_case "delay mapper vs techmap" `Quick test_delay_mapper_itc99;
      Alcotest.test_case "base64" `Quick test_base64;
      Alcotest.test_case "name escaping" `Quick test_name_escaping;
      Alcotest.test_case "protocol import wire format" `Quick test_protocol_import;
    ] )
