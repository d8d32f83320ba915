module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Workload = Aptget_workloads.Workload
module Aj = Aptget_passes.Aj
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Faults = Aptget_pmu.Faults
module Corun = Aptget_machine.Corun
module Crash = Aptget_store.Crash
module Trace = Aptget_obs.Trace
module Metrics = Aptget_obs.Metrics

type measurement = {
  workload : string;
  outcome : Machine.outcome;
  verified : (unit, string) result;
  injected : Inject.injected list;
  skipped : (int * string) list;
}

let verified_exn m =
  match m.verified with
  | Ok () -> m
  | Error e -> failwith (Printf.sprintf "%s: verification failed: %s" m.workload e)

let speedup ~baseline m =
  float_of_int baseline.outcome.Machine.cycles
  /. float_of_int m.outcome.Machine.cycles

let instruction_overhead ~baseline m =
  float_of_int m.outcome.Machine.instructions
  /. float_of_int baseline.outcome.Machine.instructions

let mpki_reduction ~baseline m =
  let b = Machine.mpki baseline.outcome in
  if b = 0. then 0. else 1. -. (Machine.mpki m.outcome /. b)

let outcome_line label m =
  Printf.sprintf
    "%-10s cycles=%-12d instrs=%-10d IPC=%.3f MPKI=%.2f mem-stall=%s \
     prefetches=%d verified=%s\n"
    label m.outcome.Machine.cycles m.outcome.Machine.instructions
    (Machine.ipc m.outcome) (Machine.mpki m.outcome)
    (Aptget_util.Table.fmt_pct (Machine.memory_stall_fraction m.outcome))
    m.outcome.Machine.dyn_prefetches
    (match m.verified with Ok () -> "ok" | Error e -> "FAILED: " ^ e)

(* ------------------------------------------------------------------ *)
(* The arm recipe: every simulated run is built and checked by         *)
(* [prepare], then run and verified by [measure] (solo) or [corun]     *)
(* (against a co-runner on the shared LLC).                            *)
(* ------------------------------------------------------------------ *)

type transform =
  Workload.instance -> Inject.injected list * (int * string) list

type prepared = Workload.instance * Inject.injected list * (int * string) list

let unmodified : transform = fun _ -> ([], [])

let inject_hints ?(cse = false) ?veto hints : transform =
 fun inst ->
  let r = Aptget_pass.run ?veto inst.Workload.func ~hints in
  if cse then ignore (Aptget_passes.Cse.run inst.Workload.func);
  (r.Aptget_pass.injected, r.Aptget_pass.skipped)

let prepare (w : Workload.t) (transform : transform) : prepared =
  let inst =
    Trace.with_span ~name:"stage.build" (fun () -> w.Workload.build ())
  in
  let injected, skipped =
    Trace.with_span ~name:"stage.inject" (fun () -> transform inst)
  in
  Trace.with_span ~name:"stage.verify-ir" (fun () ->
      Verify.check_exn inst.Workload.func);
  (inst, injected, skipped)

let measured ~label ((inst, injected, skipped) : prepared) outcome =
  let verified =
    Trace.with_span ~name:"stage.semantic-verify" (fun () ->
        inst.Workload.verify inst.Workload.mem outcome.Machine.ret)
  in
  { workload = label; outcome; verified; injected; skipped }

let measure ?(config = Machine.default_config) ?watchdog ?crash ?sampler
    ?window_cycles ?on_window ~label ((inst, _, _) as prepared : prepared) =
  let outcome =
    Trace.with_span ~name:"stage.measure" @@ fun () ->
    let o =
      Watchdog.run ?config:watchdog ?crash ~machine:config Watchdog.Measure
        (fun capped ->
          Machine.execute ~config:capped ?sampler ?window_cycles ?on_window
            ~args:inst.Workload.args ~mem:inst.Workload.mem inst.Workload.func)
    in
    Trace.set_cycles o.Machine.cycles;
    o
  in
  measured ~label prepared outcome

let corun ?config ?policy ?sampler ?window_cycles ?on_window ~label
    ((inst, _, _) as prepared : prepared) (co : Workload.t) =
  let ci =
    Trace.with_span ~name:"stage.build" (fun () -> co.Workload.build ())
  in
  (* Tenant stream first, co-runner second. *)
  let tenant_o, co_o =
    Trace.with_span ~name:"stage.measure" @@ fun () ->
    match
      Corun.run ?config ?policy
        [
          Corun.stream ?sampler ?window_cycles ?on_window
            ~args:inst.Workload.args ~name:label ~mem:inst.Workload.mem
            inst.Workload.func;
          Corun.stream ~args:ci.Workload.args ~name:co.Workload.name
            ~mem:ci.Workload.mem ci.Workload.func;
        ]
    with
    | [ t; c ] ->
      Trace.set_cycles t.Corun.so_outcome.Machine.cycles;
      (t.Corun.so_outcome, c.Corun.so_outcome)
    | _ -> assert false
  in
  ( measured ~label prepared tenant_o,
    measured ~label:co.Workload.name (ci, [], []) co_o )

let run_transformed ?config ?watchdog ?crash (w : Workload.t) transform =
  Trace.with_span ~name:"pipeline.run" ~attrs:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  measure ?config ?watchdog ?crash ~label:w.Workload.name (prepare w transform)

let aj_transform ?distance : transform =
 fun inst ->
  let r = Aj.run ?distance inst.Workload.func in
  (r.Aj.injected, r.Aj.skipped)

let baseline ?config w = run_transformed ?config w unmodified
let aj ?config ?distance w = run_transformed ?config w (aj_transform ?distance)

let profile ?options (w : Workload.t) =
  Trace.with_span ~name:"pipeline.profile"
    ~attrs:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  let inst =
    Trace.with_span ~name:"stage.build" (fun () -> w.Workload.build ())
  in
  Profiler.profile ?options ~args:inst.Workload.args ~mem:inst.Workload.mem
    inst.Workload.func

let with_hints ?config ?cse ?veto ~hints w =
  run_transformed ?config w (inject_hints ?cse ?veto hints)

let aptget ?options ?config ?cse w =
  let prof = profile ?options w in
  (with_hints ?config ?cse ~hints:prof.Profiler.hints w, prof)

(* ------------------------------------------------------------------ *)
(* Robust pipeline: profile corruption, stale hints and verifier       *)
(* failures degrade the run instead of killing it.                     *)
(* ------------------------------------------------------------------ *)

type degradation = { stage : string; cause : string; fallback : string }

type robust = {
  r_workload : string;
  r_measurement : measurement option;
  r_profile : Profiler.t option;
  r_hints_used : Aptget_pass.hint list;
  r_hints_dropped : (Aptget_pass.hint * string) list;
  r_degradations : degradation list;
  r_profile_retried : bool;
}

let degradation_to_string d =
  Printf.sprintf "[%s] %s -> %s" d.stage d.cause d.fallback

(* The model needs >= 8 iteration observations (its min_samples); a
   profile where no in-loop delinquent load reached that — or where the
   LBR barely fired at all — is worth one denser retry. On real
   hardware the fix is a longer profiling window; for a fixed-length
   simulated run the equivalent signal boost is a denser LBR period. *)
let profile_too_thin (p : Profiler.t) =
  p.Profiler.lbr_snapshots < 2
  || List.exists
       (fun (lp : Profiler.load_profile) ->
         lp.Profiler.latch_pc >= 0
         && Array.length lp.Profiler.iteration_times < 8)
       p.Profiler.profiles

let run_robust ?(options = Profiler.default_options) ?config
    ?(faults = Faults.none) ?hints ?watchdog ?crash (w : Workload.t) =
  let degradations = ref [] in
  let add stage cause fallback =
    Metrics.incr ("robust.degradation." ^ stage);
    degradations := { stage; cause; fallback } :: !degradations
  in
  (* Watchdog expirations degrade with their structured cause; anything
     else keeps the exception printer's text. A simulated crash
     (Crash.Crashed) is never degraded — a dead process does not fall
     back, so every handler below re-raises it. *)
  let cause_of = function
    | Watchdog.Timed_out t -> Watchdog.timeout_to_string t
    | e -> Printexc.to_string e
  in
  let go () =
        let options = { options with Profiler.faults } in
        let try_profile opts =
          match
            Watchdog.run ?config:watchdog ?crash
              ~machine:opts.Profiler.machine Watchdog.Profile
              (fun capped ->
                profile ~options:{ opts with Profiler.machine = capped } w)
          with
          | p -> Some p
          | exception e when not (Crash.is_crashed e) ->
            add "profile" (cause_of e) "continuing without a fresh profile";
            None
        in
        (* 1. Profile (unless hints were supplied), retrying once with
           denser sampling when too few iteration samples came back. *)
        let prof, retried =
          match hints with
          | Some _ -> (None, false)
          | None -> (
            match try_profile options with
            | Some p when profile_too_thin p ->
              add "profile"
                (Printf.sprintf
                   "too few iteration samples (%d LBR snapshots, %d PEBS \
                    samples)"
                   p.Profiler.lbr_snapshots p.Profiler.pebs_samples)
                "retried profiling with a 4x denser LBR sampling period";
              let denser =
                {
                  options with
                  Profiler.lbr_period = max 1_000 (options.Profiler.lbr_period / 4);
                }
              in
              (match try_profile denser with
              | Some p2 -> (Some p2, true)
              | None -> (Some p, true))
            | p -> (p, false))
        in
        (* Per-load diagnostics from the profiler become report entries
           so every fallback/skip is visible with its cause. *)
        (match prof with
        | None -> ()
        | Some p ->
          List.iter
            (fun (lp : Profiler.load_profile) ->
              match lp.Profiler.status with
              | Profiler.Hinted -> ()
              | Profiler.Fallback why ->
                add "profile"
                  (Printf.sprintf "load PC %d: %s" lp.Profiler.load_pc why)
                  "hint emitted with fallback parameters"
              | Profiler.Skipped why ->
                add "profile"
                  (Printf.sprintf "load PC %d: %s" lp.Profiler.load_pc why)
                  "no hint for this load")
            p.Profiler.profiles);
        let candidate =
          match (hints, prof) with
          | Some h, _ -> h
          | None, Some p -> p.Profiler.hints
          | None, None -> []
        in
        (* 2. Build, validate hints against the program, inject, verify
           the rewritten IR, run, verify semantics — each stage falling
           back instead of raising. *)
        match w.Workload.build () with
        | exception e when not (Crash.is_crashed e) ->
          add "build" (cause_of e) "no measurement for this workload";
          (prof, retried, candidate, [], None)
        | inst ->
          let hints_used, hints_dropped =
            Profiler.validate_hints inst.Workload.func candidate
          in
          List.iter
            (fun ((_ : Aptget_pass.hint), why) ->
              add "hints" why "hint skipped")
            hints_dropped;
          let inst, injected, skipped =
            match
              (* The injection pass is pure rewriting (no simulated
                 cycles), so its budget is counted in kernel steps: one
                 per hint it will process. *)
              Watchdog.check_steps ?config:watchdog Watchdog.Inject
                ~steps:(List.length hints_used);
              Trace.with_span ~name:"stage.inject" (fun () ->
                  Aptget_pass.run inst.Workload.func ~hints:hints_used)
            with
            | exception e when not (Crash.is_crashed e) ->
              add "inject" (cause_of e)
                "discarding injections; rebuilding the unmodified kernel";
              (w.Workload.build (), [], [])
            | r -> (
              if r.Aptget_pass.fellback then
                add "inject" "no usable hints (Algorithm 2, lines 35-38)"
                  "static Ainsworth & Jones injection";
              List.iter
                (fun (pc, why) ->
                  add "inject"
                    (Printf.sprintf "load PC %d: %s" pc why)
                    "load left unprefetched")
                r.Aptget_pass.skipped;
              match Verify.check inst.Workload.func with
              | Ok () -> (inst, r.Aptget_pass.injected, r.Aptget_pass.skipped)
              | Error e ->
                add "verify-ir" e
                  "discarding injections; rebuilding the unmodified kernel";
                (w.Workload.build (), [], []))
          in
          let run_inst prepared =
            let m =
              measure ?config ?watchdog ?crash ~label:w.Workload.name prepared
            in
            (match m.verified with
            | Ok () -> ()
            | Error e ->
              add "semantic-verify" e "measurement reported as unverified");
            m
          in
          let measurement =
            match run_inst (inst, injected, skipped) with
            | m -> Some m
            | exception e when not (Crash.is_crashed e) -> (
              add "run" (cause_of e)
                "rebuilding and running the unmodified kernel";
              match run_inst (w.Workload.build (), [], []) with
              | m -> Some m
              | exception e2 when not (Crash.is_crashed e2) ->
                add "run" (cause_of e2)
                  "no measurement for this workload";
                None)
          in
          (prof, retried, hints_used, hints_dropped, measurement)
  in
  (* Last-resort catch: run_robust must never raise, even on failures
     in stages the per-stage handlers above do not anticipate. The one
     exception is a simulated crash, which models the process dying and
     therefore must propagate. *)
  let prof, retried, hints_used, hints_dropped, measurement =
    Trace.with_span ~name:"pipeline.run-robust"
      ~attrs:[ ("workload", w.Workload.name) ]
    @@ fun () ->
    try go ()
    with e when not (Crash.is_crashed e) ->
      add "pipeline" (cause_of e) "no measurement for this workload";
      (None, false, [], [], None)
  in
  {
    r_workload = w.Workload.name;
    r_measurement = measurement;
    r_profile = prof;
    r_hints_used = hints_used;
    r_hints_dropped = hints_dropped;
    r_degradations = List.rev !degradations;
    r_profile_retried = retried;
  }

(* ------------------------------------------------------------------ *)
(* Guarded pipeline: remap stale hints, measure the candidate against  *)
(* the baseline, and quarantine hint sets that regress below a floor.  *)
(* ------------------------------------------------------------------ *)

module Remap = Aptget_profile.Remap
module Hints_file = Aptget_profile.Hints_file

type guard_config = { floor : float; try_aj : bool }

let default_guard = { floor = 0.98; try_aj = true }

type fallback = Aj_static | Pinned_baseline

let fallback_to_string = function
  | Aj_static -> "static Ainsworth & Jones injection"
  | Pinned_baseline -> "baseline (hints vetoed)"

type guard_outcome =
  | Admitted
  | Quarantined of { speedup : float; fallback : fallback }
  | Known_bad of { prior_speedup : float; fallback : fallback }

type guarded = {
  g_workload : string;
  g_program : int;
  g_baseline : measurement;
  g_candidate : measurement option;
  g_final : measurement;
  g_speedup : float;
  g_outcome : guard_outcome;
  g_hints : Aptget_pass.hint list;
  g_remap : Remap.t option;
}

let guard_outcome_to_string = function
  | Admitted -> "admitted"
  | Quarantined q ->
    Printf.sprintf "quarantined (%.3fx < floor); fell back to %s" q.speedup
      (fallback_to_string q.fallback)
  | Known_bad k ->
    Printf.sprintf "known bad (%.3fx on record); fell back to %s"
      k.prior_speedup
      (fallback_to_string k.fallback)

let no_measure_cache ~variant f =
  ignore (variant : string);
  f ()

let run_guarded ?config ?(guard = default_guard) ?quarantine ?remap ?watchdog
    ?crash ?(measure_cache = no_measure_cache) ~(doc : Hints_file.doc)
    (w : Workload.t) =
  Trace.with_span ~name:"pipeline.run-guarded"
    ~attrs:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  let current =
    Aptget_ir.Fingerprint.fingerprint (w.Workload.build ()).Workload.func
  in
  let remap_result =
    Option.map (fun rc -> Remap.run ~config:rc ~current doc) remap
  in
  let hints =
    match remap_result with
    | Some r -> r.Remap.hints
    | None -> Hints_file.hints_of_doc doc
  in
  (* Every simulator run below is supervised: the watchdog caps the
     machine's cycle fuse, and the crash plan (if armed) can kill the
     process mid-measurement. A baseline or fallback that blows its
     budget has nothing to degrade to, so its Timed_out propagates; a
     candidate that blows its budget is quarantined at 0.0x. *)
  let run = run_transformed ?config ?watchdog ?crash w in
  let base = measure_cache ~variant:"guard-baseline" (fun () -> run unmodified) in
  let program = current.Aptget_ir.Fingerprint.program in
  let hkey = Quarantine.hints_key hints in
  let fall_back ~reason =
    (* The baseline-equivalent fallback still goes through the injection
       pass, vetoing every hint: the measurement is the unmodified kernel
       (the simulator is deterministic), and the per-hint skip records
       show exactly what the guard suppressed. An empty candidate would
       instead trip the pass's Algorithm-2 static fallback, so it runs
       the kernel unmodified. The skip records embed [reason], so this
       run is never cached — two different reasons must not alias. *)
    let pinned_m () =
      run
        (match hints with
        | [] -> unmodified
        | _ :: _ -> inject_hints ~veto:(fun _ -> Some reason) hints)
    in
    if guard.try_aj then begin
      match measure_cache ~variant:"guard-aj" (fun () -> run aj_transform) with
      | m when speedup ~baseline:base m >= guard.floor -> (m, Aj_static)
      | _ -> (pinned_m (), Pinned_baseline)
      | exception Watchdog.Timed_out _ -> (pinned_m (), Pinned_baseline)
    end
    else (pinned_m (), Pinned_baseline)
  in
  let known =
    Option.bind quarantine (fun q ->
        Quarantine.find q ~workload:w.Workload.name ~program ~hints_key:hkey)
  in
  let candidate, final, outcome =
    match known with
    | Some e ->
      let final, fallback =
        fall_back
          ~reason:
            (Printf.sprintf "hint set quarantined (%.3fx on record)"
               e.Quarantine.q_speedup)
      in
      ( None,
        final,
        Known_bad { prior_speedup = e.Quarantine.q_speedup; fallback } )
    | None -> (
      let quarantine_at s =
        Option.iter
          (fun q ->
            Quarantine.add q
              {
                Quarantine.q_workload = w.Workload.name;
                q_program = program;
                q_hints = hkey;
                q_speedup = s;
              })
          quarantine
      in
      match
        measure_cache
          ~variant:("guard-candidate:" ^ Aptget_ir.Fingerprint.hex hkey)
          (fun () -> run (inject_hints hints))
      with
      | m ->
        let s = speedup ~baseline:base m in
        if s >= guard.floor then (Some m, m, Admitted)
        else begin
          quarantine_at s;
          let final, fallback =
            fall_back
              ~reason:
                (Printf.sprintf "hint set quarantined (measured %.3fx < %.3fx)"
                   s guard.floor)
          in
          (Some m, final, Quarantined { speedup = s; fallback })
        end
      | exception Watchdog.Timed_out t ->
        (* A candidate that never finishes is worse than one that merely
           regresses: record it at 0.0x so future runs skip it without
           re-spending the budget. *)
        quarantine_at 0.;
        let final, fallback =
          fall_back
            ~reason:
              (Printf.sprintf "hint set quarantined (%s)"
                 (Watchdog.timeout_to_string t))
        in
        (None, final, Quarantined { speedup = 0.; fallback }))
  in
  Metrics.incr
    (match outcome with
    | Admitted -> "guard.admitted"
    | Quarantined _ -> "guard.quarantined"
    | Known_bad _ -> "guard.known_bad");
  {
    g_workload = w.Workload.name;
    g_program = program;
    g_baseline = base;
    g_candidate = candidate;
    g_final = final;
    g_speedup = speedup ~baseline:base final;
    g_outcome = outcome;
    g_hints = hints;
    g_remap = remap_result;
  }

let force_distance d hints =
  List.map (fun h -> { h with Aptget_pass.distance = d }) hints

let force_site site hints =
  List.map
    (fun h ->
      match site with
      | Inject.Inner -> { h with Aptget_pass.site; sweep = 1 }
      | Inject.Outer -> { h with Aptget_pass.site })
    hints
