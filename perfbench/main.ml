(* The repository benchmark. One run measures one workload:

     main.exe --workload pgo-miss|pgo-resident|corun-llc --seed N
              --seconds S --trace 0|1

   With --trace 0 it repeats untraced passes until S seconds have gone
   and prints the end-to-end metrics (medians over the passes). With
   --trace 1 it runs an untraced, a traced and another untraced pass,
   then the isolated layer measurements, and prints the per-layer
   metrics. The last line of standard output is the JSON result; the
   exit code is non-zero when a run failed verification or two passes
   disagreed on a simulated outcome. README.md describes every
   metric. *)

open Perfbench
module Clock = Aptget_util.Clock
module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Profiler = Aptget_profile.Profiler

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

(* Peak resident set: simulated memory lives in Bigarrays outside the
   OCaml heap, so the kernel's high-water mark is the figure that sees
   it. The mark is reset before each pass, so each pass reports its
   own peak; where the kernel refuses the reset, the mark covers the
   process so far. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match Scanf.sscanf (input_line ic) "VmHWM: %d kB" Fun.id with
    | kb -> float_of_int kb /. 1024.
    | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ()
  in
  scan ()

(* Values that must repeat exactly across the passes or repetitions of
   a run; any that does not is printed and counted. *)
let nondeterministic checks =
  List.filter
    (fun (name, values) ->
      match values with
      | [] -> false
      | v :: rest ->
        let same = List.for_all (String.equal v) rest in
        if not same then
          Printf.printf "determinism: %s varies: %s\n" name (String.concat " " values);
        not same)
    checks
  |> List.length

let exact = Printf.sprintf "%.17g"

let print_programs (p : Flow.pass) =
  List.iter
    (fun (pr : Flow.program) ->
      Printf.printf "program %-8s baseline=%d aptget=%d aj=%d speedup=%.3f vs_aj=%.3f hints=%d\n"
        pr.Flow.name pr.Flow.base.Machine.cycles pr.Flow.apt.Machine.cycles
        pr.Flow.aj.Machine.cycles (Flow.speedup pr) (Flow.vs_aj pr)
        (List.length pr.Flow.prof.Profiler.hints))
    p.Flow.programs

let speedups (programs : Flow.program list) =
  match programs with
  | [] -> (0., 0., 0.)
  | _ ->
    let s = List.map Flow.speedup programs in
    ( Summary.geomean s,
      List.fold_left Float.min infinity s,
      Summary.geomean (List.map Flow.vs_aj programs) )

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let end_to_end ~workload ~seed ~seconds =
  let start = Clock.now () in
  let rec passes acc =
    reset_peak_rss ();
    let p = Flow.run_pass ~traced:false ~size:Programs.Full ~seed workload in
    let rss = peak_rss_mib () in
    Printf.eprintf "perfbench: pass %d %.3fs (setup %.3fs, %d simulated instructions, %.1f MiB)\n%!"
      (List.length acc + 1) p.Flow.seconds p.Flow.setup.Flow.seconds p.Flow.instrs rss;
    let acc = (p, rss) :: acc in
    if Clock.now () -. start < seconds then passes acc else List.rev acc
  in
  let ps, rss = List.split (passes []) in
  let first = List.hd ps in
  print_programs first;
  let sum g = List.fold_left (fun acc p -> acc + g p) 0 ps in
  let attempted = sum (fun p -> p.Flow.attempted) and failed = sum (fun p -> p.Flow.failed) in
  let speedup, speedup_min, vs_aj = speedups first.Flow.programs in
  let digests = List.map Flow.digest ps in
  let checks =
    [
      ("digest", digests);
      ("sim_speedup", List.map (fun p -> let s, _, _ = speedups p.Flow.programs in exact s) ps);
      ("sim_vs_aj", List.map (fun p -> let _, _, v = speedups p.Flow.programs in exact v) ps);
      ("verified_runs", List.map (fun p -> string_of_int (p.Flow.attempted - p.Flow.failed)) ps);
      (* The first pass also pays the process's one-time allocations. *)
      ("pass_minor_words", List.map (fun p -> exact p.Flow.minor_words) (List.tl ps));
      ("setup_minor_words", List.map (fun p -> exact p.Flow.setup.Flow.words) ps);
    ]
  in
  ignore (nondeterministic checks);
  Printf.printf "digest %s over %d passes\n" (List.hd digests) (List.length ps);
  let consistent = List.for_all (String.equal (List.hd digests)) digests in
  let rate count p = float_of_int (count p) /. p.Flow.sim_s /. 1e6 in
  let per_pass =
    [
      ("setup_s", List.map (fun p -> p.Flow.setup.Flow.seconds) ps);
      ("pipeline_s", List.map (fun p -> p.Flow.seconds -. p.Flow.setup.Flow.seconds) ps);
      ("sim_minstr_per_s", List.map (rate (fun p -> p.Flow.instrs)) ps);
      ("sim_mmemops_per_s", List.map (rate (fun p -> p.Flow.memops)) ps);
      ("peak_rss_mb", rss);
    ]
  in
  if List.length ps > 1 then
    List.iter
      (fun (name, xs) ->
        let q1, q2, q3 = Summary.quartiles xs in
        Printf.printf "passes %s: n=%d q1=%.6g median=%.6g q3=%.6g\n" name (List.length xs) q1 q2 q3)
      per_pass;
  let metrics =
    List.map (fun (name, xs) -> (name, Summary.median xs)) per_pass
    @ [
        ("sim_speedup", speedup);
        ("sim_speedup_min", speedup_min);
        ("sim_vs_aj", vs_aj);
        ("verified_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
      ]
  in
  (consistent && failed = 0, attempted, failed, Report.end_to_end, metrics)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

(* Untraced, traced, untraced: the first pass takes the process's
   warm-up, the last is the untraced time the tracing overhead is
   measured against, and all three must agree on every outcome. *)
let per_layer ~workload ~seed =
  let pass traced = Flow.run_pass ~traced ~size:Programs.Full ~seed workload in
  let warm = pass false in
  let t = pass true in
  let untraced = pass false in
  Printf.eprintf "perfbench: untraced passes %.2fs %.2fs, traced pass %.2fs\n%!"
    warm.Flow.seconds untraced.Flow.seconds t.Flow.seconds;
  print_programs t;
  let digests = List.map Flow.digest [ warm; t; untraced ] in
  let same_outcomes = List.for_all (String.equal (List.hd digests)) digests in
  Printf.printf "digest untraced %s traced %s untraced %s\n" (List.nth digests 0)
    (List.nth digests 1) (List.nth digests 2);
  let self = Flow.self_times t.Flow.spans in
  let s name = List.assoc name self in
  let replay = Layers.hierarchy_replay ~seed workload in
  let insert = Layers.cache_insert ~seed in
  let mshr = Layers.mshr () in
  let hwpf = Layers.hwpf ~seed in
  let sb_gain, engines_agree = Layers.superblock_gain ~size:Programs.Full ~seed workload in
  if not engines_agree then print_endline "superblock tier changed a simulated outcome";
  let fit_s, fits = Layers.signal_fit t.Flow.programs in
  let words (r : Layers.rate) = List.map exact r.Layers.words_per_op in
  let varying =
    nondeterministic
      [
        ("cache.replay_words_per_op", words replay);
        ("cache.insert_words_per_op", words insert);
        ("cache.mshr_words_per_op", words mshr);
        ("cache.hwpf_words_per_op", words hwpf);
      ]
  in
  let apt =
    List.fold_left
      (fun acc (pr : Flow.program) ->
        Hierarchy.add_counters acc pr.Flow.apt.Machine.counters)
      (Hierarchy.counters (Hierarchy.create Hierarchy.default_config))
      t.Flow.programs
  in
  let apt_cycles =
    List.fold_left (fun acc (pr : Flow.program) -> acc + pr.Flow.apt.Machine.cycles) 0 t.Flow.programs
  in
  let profs = List.map (fun (pr : Flow.program) -> pr.Flow.prof) t.Flow.programs in
  let over_profs g = float_of_int (List.fold_left (fun acc pr -> acc + g pr) 0 profs) in
  let fallbacks (pr : Profiler.t) =
    List.length
      (List.filter
         (fun lp -> match lp.Profiler.status with Profiler.Fallback _ -> true | _ -> false)
         pr.Profiler.profiles)
  in
  let i = float_of_int and ratio = Summary.ratio in
  let unattributed = s "bench.pass" +. s "bench.program" in
  let metrics =
    [
      ("workloads.build_s", s "workloads.build");
      ("workloads.build_mwords", t.Flow.setup.Flow.words /. 1e6);
      ("workloads.builds", i t.Flow.setup.Flow.calls);
      ("workloads.verify_s", s "workloads.verify");
      ("machine.execute_s", s "machine.execute");
      ("machine.minstr_per_s", ratio (i t.Flow.execute_instrs) (s "machine.execute") /. 1e6);
      ("machine.words_per_instr", ratio t.Flow.execute.Flow.words (i t.Flow.execute_instrs));
      ("machine.superblock_gain", sb_gain);
      ("machine.corun_s", s "machine.corun");
      ("machine.corun_minstr_per_s", ratio (i t.Flow.corun_instrs) (s "machine.corun") /. 1e6);
      ("cache.replay_mops", replay.Layers.mops);
      ("cache.replay_words_per_op", List.hd replay.Layers.words_per_op);
      ("cache.insert_mops", insert.Layers.mops);
      ("cache.mshr_mops", mshr.Layers.mops);
      ("cache.hwpf_mops", hwpf.Layers.mops);
      ("cache.hwpf_words_per_op", List.hd hwpf.Layers.words_per_op);
      ("cache.demand_loads", i apt.Hierarchy.demand_loads);
      ("cache.l1_hit_ratio", ratio (i apt.Hierarchy.hits_l1) (i apt.Hierarchy.demand_loads));
      ("cache.dram_fills", i apt.Hierarchy.dram_fills_demand);
      ("cache.dram_stall_share", ratio (i apt.Hierarchy.stall_cycles_dram) (i apt_cycles));
      ("cache.hw_pf_issued", i apt.Hierarchy.hw_prefetch_issued);
      ("cache.sw_pf_issued", i apt.Hierarchy.sw_prefetch_issued);
      ("cache.sw_pf_late_ratio", Machine.late_prefetch_ratio apt);
      ("cache.sw_pf_early_evict_ratio", Machine.early_evict_ratio apt);
      ("cache.sw_pf_useless_ratio", Machine.useless_prefetch_ratio apt);
      ("cache.sw_pf_dropped", i apt.Hierarchy.sw_prefetch_dropped);
      ("pmu.profile_execute_s", s "pmu.profile_execute");
      ("pmu.sampler_overhead_s", s "pmu.profile_execute" -. t.Flow.baseline_execute_s);
      ("pmu.lbr_snapshots", over_profs (fun pr -> pr.Profiler.lbr_snapshots));
      ("pmu.pebs_samples", over_profs (fun pr -> pr.Profiler.pebs_samples));
      ("profile.refit_s", s "profile.refit");
      ("profile.hints", over_profs (fun pr -> List.length pr.Profiler.hints));
      ("profile.fallbacks", over_profs fallbacks);
      ("signal.fit_s", fit_s);
      ("signal.fits", i fits);
      ("passes.inject_s", s "passes.inject");
      ("passes.injected", i t.Flow.injected);
      ("passes.skipped", i t.Flow.skipped);
      ("ir.verify_s", s "ir.verify");
      ("core.pass_s", t.Flow.seconds);
      ("core.untraced_pass_s", untraced.Flow.seconds);
      ("core.trace_overhead_s", t.Flow.seconds -. untraced.Flow.seconds);
      ("core.unattributed_s", unattributed);
      ("core.span_coverage", 1. -. (unattributed /. t.Flow.seconds));
      ("core.nondeterministic", i varying);
      ("gc.minor_mwords", t.Flow.minor_words /. 1e6);
      ("gc.major_collections", i t.Flow.major_collections);
    ]
  in
  let total g = g warm + g t + g untraced in
  let attempted = total (fun p -> p.Flow.attempted) and failed = total (fun p -> p.Flow.failed) in
  (same_outcomes && engines_agree && failed = 0, attempted, failed, Report.per_layer, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pgo-miss | pgo-resident | corun-llc");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of an untraced run (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workload =
    match List.assoc_opt !workload Flow.workloads with
    | Some w -> w
    | None -> fail_usage ("unknown workload " ^ !workload)
  in
  let correct, attempted, failed, catalogue, metrics =
    match !trace with
    | 0 -> end_to_end ~workload ~seed:!seed ~seconds:!seconds
    | 1 -> per_layer ~workload ~seed:!seed
    | n -> fail_usage (Printf.sprintf "--trace must be 0 or 1, not %d" n)
  in
  List.iter
    (fun (sp : Report.spec) ->
      Printf.printf "%-32s %20.6f %s\n" sp.Report.name (List.assoc sp.Report.name metrics)
        sp.Report.unit_)
    catalogue;
  print_endline (Report.result_line ~correct ~attempted ~failed ~catalogue metrics);
  if not correct then exit 1
