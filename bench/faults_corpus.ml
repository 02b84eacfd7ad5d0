open Report

(* Fault-injection campaigns: sweep the standard fault list over every
   ITC99 benchmark's EE netlist and check that nothing silently mis-computes
   under the adversarial delay schedules.  The dangerous class is
   wrong-output; the v-rail stuck-ats that land there are precisely the
   faults LEDR encoding cannot witness locally.  BENCH_faults.json records,
   per benchmark, the fault count, the four classes and the MD5 of the JSON
   report, which a faster campaign must reproduce exactly, plus the
   campaign's wall time and cost per fault, which it need not. *)

let print_faults () =
  section "Robustness: fault-injection campaigns (Ee_fault.Campaign)";
  let waves = 16 in
  Printf.printf "(%d waves per fault, seed %d; faults per Fault.enumerate)\n\n" waves seed;
  let rows =
    List.map
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        let id = b.Ee_bench_circuits.Itc99.id in
        let a = Ee_report.Pipeline.build b in
        let t0 = Unix.gettimeofday () in
        let r =
          Ee_fault.Campaign.run ~waves ~seed ~bench:id a.Ee_report.Pipeline.pl_ee
            a.Ee_report.Pipeline.netlist
        in
        let wall = Unix.gettimeofday () -. t0 in
        let faults = List.length r.Ee_fault.Campaign.records in
        Printf.printf "%s  %.3f s, %.1f us/fault\n%!" (Ee_fault.Campaign.summary_string r) wall
          (wall *. 1e6 /. float_of_int faults);
        Printf.sprintf
          "    { \"bench\": \"%s\", \"faults\": %d, \"masked\": %d, \"detected\": %d, \
           \"deadlock\": %d, \"wrong_output\": %d, \"report_md5\": \"%s\", \"wall_s\": %.3f, \
           \"us_per_fault\": %.1f }"
          id faults r.Ee_fault.Campaign.masked r.Ee_fault.Campaign.detected
          r.Ee_fault.Campaign.deadlock r.Ee_fault.Campaign.wrong_output
          (Digest.to_hex (Digest.string (Ee_fault.Campaign.to_json r)))
          wall
          (wall *. 1e6 /. float_of_int faults))
      Ee_bench_circuits.Itc99.all
  in
  write_bench "BENCH_faults.json"
    (Printf.sprintf
       "{\n  \"waves\": %d,\n  \"seed\": %d,\n  \"cores\": %d,\n  \"campaigns\": [\n%s\n  ]\n}\n"
       waves seed (cores ()) (String.concat ",\n" rows));
  let b01 = Ee_report.Pipeline.build (Ee_bench_circuits.Itc99.find "b01") in
  let pl = b01.Ee_report.Pipeline.pl_ee in
  let gates = Array.length (Ee_phased.Pl.gates pl) in
  let audits = Ee_fault.Campaign.token_audit pl ~steps:(50 * gates) ~seed in
  let count p = List.length (List.filter (fun a -> p a.Ee_fault.Campaign.verdict) audits) in
  Printf.printf "b01 token audit: %d corruptions -> %d deadlocked, %d unsafe, %d survived\n"
    (List.length audits)
    (count (function Ee_fault.Campaign.Audit_dead _ -> true | _ -> false))
    (count (function Ee_fault.Campaign.Audit_unsafe _ -> true | _ -> false))
    (count (( = ) Ee_fault.Campaign.Audit_live))

(* Corpus sweep: push a population of circuits the repo did not generate
   through the whole import pipeline — parse (BLIF / ASCII AIGER / binary
   AIGER) -> delay-driven remap -> BDD equivalence proof -> PL mapping ->
   EE synthesis -> simulation — and record the failure taxonomy, mapping
   quality and EE-speedup distribution in BENCH_corpus.json.

   Gates (exit 1):
   - every generated entry must land in the "ok" taxonomy class (a parse,
     map or equivalence failure on our own output is a bug);
   - entries loaded from --corpus-dir must never be "not_equivalent" or
     "map_failed" (foreign files may legitimately fail to parse);
   - on every ITC99 bench, the [`Delay] cut mapper's depth must not exceed
     {!Ee_rtl.Techmap}'s (the old mapper), and where checked the two must
     be formally equivalent. *)

let print_corpus ?dir ~fast () =
  section "Corpus: arbitrary-netlist frontend sweep (parse -> remap -> EE)";
  let module C = Ee_frontend.Corpus in
  let module Netlist = Ee_netlist.Netlist in
  let n = 120 in
  let generated = C.generate ~seed ~n in
  let loaded = match dir with None -> [] | Some d -> C.load_dir d in
  let counts = Hashtbl.create 8 in
  let hard_failures = ref [] in
  let speedups = ref [] in
  let mapped_depths = ref [] in
  let ee_vectors = if fast then 25 else !vectors in
  let measured = ref 0 in
  let sweep ~generated_entry entries =
    List.iter
      (fun (e : C.entry) ->
        let o = C.check e in
        bump counts (C.outcome_class o);
        match o with
        | C.Passed { o_mapped; o_mapped_luts; o_mapped_depth; _ } ->
            mapped_depths := float_of_int o_mapped_depth :: !mapped_depths;
            (* EE measurement on the remapped netlist; directory entries can
               be arbitrarily large, so bound the simulated population. *)
            if o_mapped_luts <= 400 && Netlist.dff_count o_mapped < 60 then begin
              let pl, pl_ee, _ = ee_pl o_mapped in
              let base, ee = sim_pair ~vectors:ee_vectors pl pl_ee in
              incr measured;
              speedups := settle_gain base ee :: !speedups
            end
        | C.Parse_failed msg ->
            if generated_entry then
              hard_failures := Printf.sprintf "%s: parse: %s" e.C.e_name msg :: !hard_failures
            else Printf.printf "  (foreign) %s failed to parse: %s\n" e.C.e_name msg
        | C.Map_failed msg ->
            hard_failures := Printf.sprintf "%s: map: %s" e.C.e_name msg :: !hard_failures
        | C.Not_equivalent msg ->
            hard_failures :=
              Printf.sprintf "%s: NOT EQUIVALENT: %s" e.C.e_name msg :: !hard_failures)
      entries
  in
  sweep ~generated_entry:true generated;
  sweep ~generated_entry:false loaded;
  let total = List.length generated + List.length loaded in
  let count c = Option.value ~default:0 (Hashtbl.find_opt counts c) in
  Printf.printf
    "%d circuits (%d generated, %d from disk): %d ok, %d parse_failed, %d map_failed, %d \
     not_equivalent\n"
    total (List.length generated) (List.length loaded) (count "ok") (count "parse_failed")
    (count "map_failed") (count "not_equivalent");
  let sp = Array.of_list !speedups in
  let dp = Array.of_list !mapped_depths in
  Printf.printf
    "EE speedup over %d simulated circuits (%d vectors): p10 %.1f%%  median %.1f%%  p90 \
     %.1f%%\n"
    !measured ee_vectors (pct sp 10.) (pct sp 50.) (pct sp 90.);
  Printf.printf "mapped depth: median %.0f  max %.0f\n" (pct dp 50.) (pct dp 100.);
  (* ITC99: the delay-driven cut mapper against the old greedy mapper. *)
  let t =
    Ee_util.Table.create
      ~headers:[ "Benchmark"; "Techmap depth"; "Delay-cut depth"; "LUTs"; "Equiv" ]
  in
  let itc_rows =
    List.map
      (fun (b : Ee_bench_circuits.Itc99.benchmark) ->
        let id = b.Ee_bench_circuits.Itc99.id in
        let d = b.Ee_bench_circuits.Itc99.build () in
        let tm = Ee_rtl.Techmap.run_rtl d in
        let dl = Ee_rtl.Cutmap.run_rtl ~mode:Ee_rtl.Cutmap.Delay d in
        let td = Netlist.depth tm and dd = Netlist.depth dl in
        (* BDD equivalence is exponential in the worst case; prove the small
           benches, spot-check the processors by depth only. *)
        let checked = Netlist.lut_count tm <= 300 in
        let failed msg = hard_failures := Printf.sprintf "%s: %s" id msg :: !hard_failures in
        if dd > td then failed (Printf.sprintf "delay-cut depth %d > techmap depth %d" dd td);
        (* A proof that raises fails this row, named, not the whole run. *)
        let equiv =
          match (not checked) || Ee_netlist.Equiv.is_equivalent tm dl with
          | true -> true
          | false ->
              failed "delay-cut mapping not equivalent to techmap";
              false
          | exception e ->
              failed ("equivalence proof raised " ^ Printexc.to_string e);
              false
        in
        Ee_util.Table.add_row t
          [
            id;
            string_of_int td;
            string_of_int dd;
            string_of_int (Netlist.lut_count dl);
            (if not checked then "(depth only)" else if equiv then "proved" else "FAILED");
          ];
        Printf.sprintf
          "    {\"id\": %S, \"techmap_depth\": %d, \"delay_depth\": %d, \"luts\": %d, \
           \"equiv_checked\": %b}"
          id td dd (Netlist.lut_count dl) checked)
      (itc99 ~fast)
  in
  Ee_util.Table.print t;
  let json =
    Printf.sprintf
      "{\n\
      \  \"circuits\": %d,\n\
      \  \"generated\": %d,\n\
      \  \"loaded\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"vectors\": %d,\n\
      \  \"taxonomy\": {\"ok\": %d, \"parse_failed\": %d, \"map_failed\": %d, \
       \"not_equivalent\": %d},\n\
      \  \"ee_speedup_percent\": {\"measured\": %d, \"p10\": %.2f, \"p50\": %.2f, \"p90\": \
       %.2f},\n\
      \  \"mapped_depth\": {\"p50\": %.1f, \"max\": %.1f},\n\
      \  \"itc99\": [\n%s\n  ],\n\
      \  \"hard_failures\": %d\n\
       }\n"
      total (List.length generated) (List.length loaded) seed ee_vectors (count "ok")
      (count "parse_failed") (count "map_failed") (count "not_equivalent") !measured
      (pct sp 10.) (pct sp 50.) (pct sp 90.) (pct dp 50.) (pct dp 100.)
      (String.concat ",\n" itc_rows)
      (List.length !hard_failures)
  in
  write_bench "BENCH_corpus.json" json;
  fail_all !hard_failures
