(* One pass of a workload: the APT-GET flow over each of its programs,
   with every run semantically verified and every simulated outcome
   kept for the digest.

   An untraced pass drives the programs through [Pipeline] itself; the
   only instrument is a wrapper around each workload's [build] closure.
   A traced pass performs the same steps by calling each layer's public
   function directly, inside an [Aptget_obs.Trace] span named after the
   layer, so host time can be split by layer. The two must produce
   identical outcomes; the digest is how that is checked. *)

module Clock = Aptget_util.Clock
module Machine = Aptget_machine.Machine
module Corun = Aptget_machine.Corun
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass
module Aj = Aptget_passes.Aj
module Pipeline = Aptget_core.Pipeline
module Trace = Aptget_obs.Trace
module Workload = Programs.Workload

type workload = Pgo_miss | Pgo_resident | Corun_llc

let workloads =
  [ ("pgo-miss", Pgo_miss); ("pgo-resident", Pgo_resident); ("corun-llc", Corun_llc) ]

(* Host seconds and minor words spent in one kind of call. *)
type meter = { mutable seconds : float; mutable words : float; mutable calls : int }

let meter () = { seconds = 0.; words = 0.; calls = 0 }

let metered m f =
  let w0 = Gc.minor_words () and t0 = Clock.now () in
  let r = f () in
  m.seconds <- m.seconds +. (Clock.now () -. t0);
  m.words <- m.words +. (Gc.minor_words () -. w0);
  m.calls <- m.calls + 1;
  r

(* The set-up instrument: [w] with its [build] closure metered. *)
let timed_build m (w : Workload.t) =
  { w with Workload.build = (fun () -> metered m w.Workload.build) }

(* The outcomes that decide a program's speedups. For a co-run tenant
   every arm is its co-run measurement. *)
type program = {
  name : string;
  base : Machine.outcome;
  apt : Machine.outcome;
  aj : Machine.outcome;
  prof : Profiler.t;
}

type pass = {
  traced : bool;
  setup : meter;  (** Workload.build *)
  execute : meter;  (** unsampled Machine.execute, traced passes only *)
  mutable execute_instrs : int;  (** simulated by those executes *)
  mutable baseline_execute_s : float;  (** the unhinted arms' share *)
  mutable corun_s : float;  (** Corun.run *)
  mutable corun_instrs : int;
  mutable instrs : int;  (** simulated, every execute and co-run stream *)
  mutable memops : int;  (** demand loads + software prefetches, likewise *)
  mutable attempted : int;  (** verified runs *)
  mutable failed : int;
  mutable injected : int;
  mutable skipped : int;
  mutable runs : (string * Machine.outcome) list;
      (** every simulated outcome, in run order once the pass has ended *)
  mutable programs : program list;  (** likewise *)
  mutable seconds : float;
  mutable sim_s : float;  (** host seconds inside execute and Corun.run *)
  mutable minor_words : float;
  mutable major_collections : int;
  mutable spans : Trace.span list;
}

let new_pass traced =
  {
    traced;
    setup = meter ();
    execute = meter ();
    execute_instrs = 0;
    baseline_execute_s = 0.;
    corun_s = 0.;
    corun_instrs = 0;
    instrs = 0;
    memops = 0;
    attempted = 0;
    failed = 0;
    injected = 0;
    skipped = 0;
    runs = [];
    programs = [];
    seconds = 0.;
    sim_s = 0.;
    minor_words = 0.;
    major_collections = 0;
    spans = [];
  }

let span name f = Trace.with_span ~name f

let note p label (o : Machine.outcome) =
  p.runs <- (label, o) :: p.runs;
  p.instrs <- p.instrs + o.Machine.instructions;
  p.memops <- p.memops + o.Machine.dyn_loads + o.Machine.dyn_prefetches

let check p label = function
  | Ok () -> p.attempted <- p.attempted + 1
  | Error e ->
    p.attempted <- p.attempted + 1;
    p.failed <- p.failed + 1;
    Printf.eprintf "perfbench: %s failed verification: %s\n%!" label e

let record p label (o : Machine.outcome) verified =
  check p label verified;
  note p label o;
  o

(* ------------------------------------------------------------------ *)
(* The stages, untraced through Pipeline or traced layer by layer.     *)
(* ------------------------------------------------------------------ *)

let build (w : Workload.t) = span "workloads.build" w.Workload.build

(* A fresh instance rewritten by [transform], IR-verified. *)
let transformed p (w : Workload.t) transform =
  let inst = build w in
  let injected, skipped = span "passes.inject" (fun () -> transform inst) in
  p.injected <- p.injected + List.length injected;
  p.skipped <- p.skipped + List.length skipped;
  span "ir.verify" (fun () -> Verify.check_exn inst.Workload.func);
  inst

let traced_measure p ~config ~label w transform =
  let inst = transformed p w transform in
  let o =
    span "machine.execute" (fun () ->
        metered p.execute (fun () ->
            Machine.execute ~config ~args:inst.Workload.args
              ~mem:inst.Workload.mem inst.Workload.func))
  in
  p.execute_instrs <- p.execute_instrs + o.Machine.instructions;
  let v =
    span "workloads.verify" (fun () ->
        inst.Workload.verify inst.Workload.mem o.Machine.ret)
  in
  record p label o v

let measured p label (m : Pipeline.measurement) =
  record p label m.Pipeline.outcome m.Pipeline.verified

let no_transform _ = ([], [])

let hints_transform hints inst =
  let r = Aptget_pass.run inst.Workload.func ~hints in
  (r.Aptget_pass.injected, r.Aptget_pass.skipped)

let aj_transform inst =
  let r = Aj.run inst.Workload.func in
  (r.Aj.injected, r.Aj.skipped)

let baseline p ~config ~label w =
  if p.traced then begin
    let before = p.execute.seconds in
    let o = traced_measure p ~config ~label w no_transform in
    p.baseline_execute_s <- p.baseline_execute_s +. (p.execute.seconds -. before);
    o
  end
  else measured p label (Pipeline.baseline ~config w)

let with_hints p ~config ~label ~hints w =
  if p.traced then traced_measure p ~config ~label w (hints_transform hints)
  else measured p label (Pipeline.with_hints ~config ~hints w)

let aj p ~config ~label w =
  if p.traced then traced_measure p ~config ~label w aj_transform
  else measured p label (Pipeline.aj ~config w)

(* Profiler.profile, split into its sampled execute and its analysis
   half (Profiler.refit) so each gets its own span. *)
let profile p ~options ~label w =
  let prof =
    if not p.traced then Pipeline.profile ~options w
    else begin
      let inst = build w in
      let sampler =
        Sampler.create ~lbr_period:options.Profiler.lbr_period
          ~pebs_period:options.Profiler.pebs_period ()
      in
      let o =
        span "pmu.profile_execute" (fun () ->
            Machine.execute ~config:options.Profiler.machine ~sampler
              ~args:inst.Workload.args ~mem:inst.Workload.mem
              inst.Workload.func)
      in
      span "profile.refit" (fun () ->
          Profiler.refit ~options ~baseline:o sampler inst.Workload.func)
    end
  in
  note p label prof.Profiler.baseline;
  prof

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* baseline, profile + APT-GET, A&J — Pipeline.aptget is exactly
   profile followed by with_hints. *)
let pgo_program p (w : Workload.t) =
  let config = Machine.default_config and options = Profiler.default_options in
  let label arm = w.Workload.name ^ "/" ^ arm in
  let base = baseline p ~config ~label:(label "baseline") w in
  let prof = profile p ~options ~label:(label "profile") w in
  let apt =
    with_hints p ~config ~label:(label "aptget") ~hints:prof.Profiler.hints w
  in
  let aj = aj p ~config ~label:(label "aj") w in
  p.programs <- { name = w.Workload.name; base; apt; aj; prof } :: p.programs

(* The contention study's machine: every arm, solo included, runs with
   a DRAM bandwidth bound, so co-runners queue on the channel. *)
let corun_config =
  let h = Machine.default_config.Machine.hierarchy in
  {
    Machine.default_config with
    Machine.hierarchy = { h with Hierarchy.dram_min_gap = 24 };
  }

let corun p ~label (pair : Programs.pair) (inst : Workload.instance) =
  let ci = build pair.Programs.corunner in
  let streams =
    [
      Corun.stream ~args:inst.Workload.args ~name:label ~mem:inst.Workload.mem
        inst.Workload.func;
      Corun.stream ~args:ci.Workload.args ~name:(label ^ "+thrash")
        ~mem:ci.Workload.mem ci.Workload.func;
    ]
  in
  let outcomes, seconds =
    span "machine.corun" (fun () ->
        Clock.wall (fun () -> Corun.run ~config:corun_config streams))
  in
  p.corun_s <- p.corun_s +. seconds;
  match outcomes with
  | [ t; c ] ->
    let t = t.Corun.so_outcome and c = c.Corun.so_outcome in
    p.corun_instrs <- p.corun_instrs + t.Machine.instructions + c.Machine.instructions;
    let verify (i : Workload.instance) (o : Machine.outcome) () =
      i.Workload.verify i.Workload.mem o.Machine.ret
    in
    ignore
      (record p (label ^ "+thrash") c (span "workloads.verify" (verify ci c)));
    record p label t (span "workloads.verify" (verify inst t))
  | _ -> failwith "Flow.corun: expected two stream outcomes"

(* Solo baseline and solo profile, then co-run baseline, co-run APT-GET
   with the solo hints, and co-run A&J, each against a fresh thrasher. *)
let corun_program p (pair : Programs.pair) =
  let config = corun_config in
  let options = { Profiler.default_options with Profiler.machine = config } in
  let w = pair.Programs.tenant in
  let label arm = w.Workload.name ^ "/" ^ arm in
  ignore (baseline p ~config ~label:(label "solo-baseline") w);
  let prof = profile p ~options ~label:(label "solo-profile") w in
  let base = corun p ~label:(label "corun-baseline") pair (transformed p w no_transform) in
  let hints inst =
    hints_transform (fst (Profiler.validate_hints inst.Workload.func prof.Profiler.hints)) inst
  in
  let apt = corun p ~label:(label "corun-aptget") pair (transformed p w hints) in
  let aj = corun p ~label:(label "corun-aj") pair (transformed p w aj_transform) in
  p.programs <- { name = w.Workload.name; base; apt; aj; prof } :: p.programs

(* ------------------------------------------------------------------ *)
(* A pass                                                              *)
(* ------------------------------------------------------------------ *)

let run_pass ~traced ~size ~seed workload =
  let p = new_pass traced in
  let programs () =
    let guarded name f =
      try span "bench.program" (fun () -> Trace.add_attr "program" name; f ())
      with e ->
        p.attempted <- p.attempted + 1;
        p.failed <- p.failed + 1;
        Printf.eprintf "perfbench: %s raised %s\n%!" name (Printexc.to_string e)
    in
    match workload with
    | Pgo_miss | Pgo_resident ->
      let ws =
        if workload = Pgo_miss then Programs.pgo_miss size ~seed
        else Programs.pgo_resident size ~seed
      in
      List.iter (fun w -> guarded w.Workload.name (fun () -> pgo_program p (timed_build p.setup w))) ws
    | Corun_llc ->
      List.iter
        (fun (pair : Programs.pair) ->
          let pair =
            {
              Programs.tenant = timed_build p.setup pair.Programs.tenant;
              corunner = timed_build p.setup pair.Programs.corunner;
            }
          in
          guarded pair.Programs.tenant.Workload.name (fun () -> corun_program p pair))
        (Programs.corun_pairs size ~seed)
  in
  if traced then (Trace.reset (); Trace.enable ());
  let exec0 = Machine.total_execute_seconds () in
  let gc0 = Gc.quick_stat () in
  let (), seconds =
    Clock.wall (fun () ->
        Fun.protect ~finally:Trace.disable (fun () -> span "bench.pass" programs))
  in
  let gc1 = Gc.quick_stat () in
  p.seconds <- seconds;
  p.sim_s <- Machine.total_execute_seconds () -. exec0 +. p.corun_s;
  p.minor_words <- gc1.Gc.minor_words -. gc0.Gc.minor_words;
  p.major_collections <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  if traced then (p.spans <- Trace.spans (); Trace.reset ());
  p.runs <- List.rev p.runs;
  p.programs <- List.rev p.programs;
  p

(* ------------------------------------------------------------------ *)
(* Outcomes: digest and speedups                                       *)
(* ------------------------------------------------------------------ *)

let counter_values (c : Hierarchy.counters) =
  let {
    Hierarchy.demand_loads;
    hits_l1;
    hits_l2;
    hits_llc;
    dram_fills_demand;
    load_hit_pre_sw_pf;
    offcore_all_data_rd;
    offcore_demand_data_rd;
    sw_prefetch_issued;
    sw_prefetch_useless;
    sw_prefetch_dropped;
    hw_prefetch_issued;
    stall_cycles_l2;
    stall_cycles_llc;
    stall_cycles_dram;
    sw_prefetch_early_evict;
  } =
    c
  in
  [
    demand_loads; hits_l1; hits_l2; hits_llc; dram_fills_demand;
    load_hit_pre_sw_pf; offcore_all_data_rd; offcore_demand_data_rd;
    sw_prefetch_issued; sw_prefetch_useless; sw_prefetch_dropped;
    hw_prefetch_issued; stall_cycles_l2; stall_cycles_llc; stall_cycles_dram;
    sw_prefetch_early_evict;
  ]

let outcome_line (label, (o : Machine.outcome)) =
  String.concat " "
    (label
    :: List.map string_of_int
         ([ o.Machine.cycles; o.Machine.instructions; o.Machine.dyn_loads;
            o.Machine.dyn_prefetches;
            Option.value o.Machine.ret ~default:min_int ]
         @ counter_values o.Machine.counters))

(* Every simulated outcome of the pass, in run order. *)
let digest p =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map outcome_line p.runs)))

let cycles_ratio (a : Machine.outcome) (b : Machine.outcome) =
  float_of_int a.Machine.cycles /. float_of_int b.Machine.cycles

let speedup pr = cycles_ratio pr.base pr.apt
let vs_aj pr = cycles_ratio pr.aj pr.apt

(* ------------------------------------------------------------------ *)
(* Span self times                                                     *)
(* ------------------------------------------------------------------ *)

let frames = [ "bench.pass"; "bench.program" ]

let layers =
  [
    "workloads.build"; "workloads.verify"; "machine.execute"; "machine.corun";
    "pmu.profile_execute"; "profile.refit"; "passes.inject"; "ir.verify";
  ]

(* Self time per span name over the benchmark's own spans: a span's
   duration minus that of its nearest benchmark-owned descendants.
   Spans the libraries open themselves are not layers of their own;
   their time stays with the enclosing benchmark span. *)
let self_times (spans : Trace.span list) =
  let owned (s : Trace.span) = List.mem s.Trace.name frames || List.mem s.Trace.name layers in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) -> if owned s then Hashtbl.replace self s.Trace.id s.Trace.wall_s)
    spans;
  let rec owner id =
    let s = Hashtbl.find by_id id in
    if owned s then Some id
    else Option.bind s.Trace.parent owner
  in
  List.iter
    (fun (s : Trace.span) ->
      match (owned s, Option.bind s.Trace.parent owner) with
      | true, Some o -> Hashtbl.replace self o (Hashtbl.find self o -. s.Trace.wall_s)
      | _ -> ())
    spans;
  List.map
    (fun name ->
      ( name,
        List.fold_left
          (fun acc (s : Trace.span) ->
            if s.Trace.name = name then acc +. Hashtbl.find self s.Trace.id else acc)
          0. spans ))
    (frames @ layers)
