(* The metric catalogue and the result line the benchmark prints last.
   BENCHMARK.json lists the same names; the test suite checks that the
   two agree. *)

type better = Lower | Higher

type spec = { name : string; unit_ : string; better : better }

let spec name unit_ better = { name; unit_; better }

(* End-to-end metrics, from untraced passes. *)
let end_to_end =
  [
    spec "setup_s" "s" Lower;
    spec "pipeline_s" "s" Lower;
    spec "sim_minstr_per_s" "Minstr/s" Higher;
    spec "sim_mmemops_per_s" "Mops/s" Higher;
    spec "peak_rss_mb" "MiB" Lower;
    spec "sim_speedup" "x" Higher;
    spec "sim_speedup_min" "x" Higher;
    spec "sim_vs_aj" "x" Higher;
    spec "verified_ratio" "ratio" Higher;
  ]

(* Per-layer metrics, from the traced pass and the isolated layer
   measurements that follow it. *)
let per_layer =
  [
    spec "workloads.build_s" "s" Lower;
    spec "workloads.build_mwords" "Mwords" Lower;
    spec "workloads.builds" "count" Lower;
    spec "workloads.verify_s" "s" Lower;
    spec "machine.execute_s" "s" Lower;
    spec "machine.minstr_per_s" "Minstr/s" Higher;
    spec "machine.words_per_instr" "words/instr" Lower;
    spec "machine.superblock_gain" "x" Higher;
    spec "machine.corun_s" "s" Lower;
    spec "machine.corun_minstr_per_s" "Minstr/s" Higher;
    spec "cache.replay_mops" "Mops/s" Higher;
    spec "cache.replay_words_per_op" "words/op" Lower;
    spec "cache.insert_mops" "Mops/s" Higher;
    spec "cache.mshr_mops" "Mops/s" Higher;
    spec "cache.hwpf_mops" "Mops/s" Higher;
    spec "cache.hwpf_words_per_op" "words/op" Lower;
    spec "cache.demand_loads" "count" Lower;
    spec "cache.l1_hit_ratio" "ratio" Higher;
    spec "cache.dram_fills" "count" Lower;
    spec "cache.dram_stall_share" "ratio" Lower;
    spec "cache.hw_pf_issued" "count" Lower;
    spec "cache.sw_pf_issued" "count" Higher;
    spec "cache.sw_pf_late_ratio" "ratio" Lower;
    spec "cache.sw_pf_early_evict_ratio" "ratio" Lower;
    spec "cache.sw_pf_useless_ratio" "ratio" Lower;
    spec "cache.sw_pf_dropped" "count" Lower;
    spec "pmu.profile_execute_s" "s" Lower;
    spec "pmu.sampler_overhead_s" "s" Lower;
    spec "pmu.lbr_snapshots" "count" Higher;
    spec "pmu.pebs_samples" "count" Higher;
    spec "profile.refit_s" "s" Lower;
    spec "profile.hints" "count" Higher;
    spec "profile.fallbacks" "count" Lower;
    spec "signal.fit_s" "s" Lower;
    spec "signal.fits" "count" Higher;
    spec "passes.inject_s" "s" Lower;
    spec "passes.injected" "count" Higher;
    spec "passes.skipped" "count" Lower;
    spec "ir.verify_s" "s" Lower;
    spec "core.pass_s" "s" Lower;
    spec "core.untraced_pass_s" "s" Lower;
    spec "core.trace_overhead_s" "s" Lower;
    spec "core.unattributed_s" "s" Lower;
    spec "core.span_coverage" "ratio" Higher;
    spec "core.nondeterministic" "count" Lower;
    spec "gc.minor_mwords" "Mwords" Lower;
    spec "gc.major_collections" "count" Lower;
  ]

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* Every digit the float carries; a non-finite value is a benchmark bug
   and must not reach the JSON. *)
let number v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Report.number: non-finite value %h" v);
  Printf.sprintf "%.17g" v

(* [values] must hold exactly the catalogue's names, in any order; the
   line lists them in catalogue order. *)
let result_line ~correct ~attempted ~failed ~catalogue values =
  let given = List.sort compare (List.map fst values)
  and wanted = List.sort compare (List.map (fun s -> s.name) catalogue) in
  if given <> wanted then
    invalid_arg "Report.result_line: metrics do not match the catalogue";
  let metric s =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name
      (number (List.assoc s.name values))
      s.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric catalogue))
