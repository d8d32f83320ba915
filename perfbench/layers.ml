(* Layers measured in isolation: the cache model on streams the
   benchmark generates with each workload's footprint, the superblock
   tier on and off, and the distance model on the profiles a pass
   collected. Each rate is the median of [reps] repetitions on fresh
   state; allocation per operation is kept per repetition, since it
   must repeat exactly. *)

module Rng = Aptget_util.Rng
module Clock = Aptget_util.Clock
module Hierarchy = Aptget_cache.Hierarchy
module Cache = Aptget_cache.Cache
module Mshr = Aptget_cache.Mshr
module Hwpf = Aptget_cache.Hwpf
module Machine = Aptget_machine.Machine
module Corun = Aptget_machine.Corun
module Profiler = Aptget_profile.Profiler
module Model = Aptget_profile.Model
module Workload = Programs.Workload

let reps = 3

type rate = { mops : float; words_per_op : float list }

(* [prepare] builds untimed fresh state; [run] does the work and
   returns how many operations it performed. *)
let rate prepare run =
  let samples =
    List.init reps (fun _ ->
        let st = prepare () in
        let w0 = Gc.minor_words () and t0 = Clock.now () in
        let ops = run st in
        let dt = Clock.now () -. t0 and words = Gc.minor_words () -. w0 in
        (float_of_int ops /. dt /. 1e6, words /. float_of_int ops))
  in
  { mops = Summary.median (List.map fst samples); words_per_op = List.map snd samples }

(* ------------------------------------------------------------------ *)
(* Hierarchy replay                                                    *)
(* ------------------------------------------------------------------ *)

(* One access stream: demand loads of [addrs] from load [pc], each
   preceded by a software prefetch [ahead] loads ahead when [ahead] is
   positive. The stream's clock advances by one issue cycle plus the
   load's blocking latency, as on the blocking core. *)
type stream = { pc : int; addrs : int array; ahead : int }

let random_stream rng ~pc ~n ~words ~ahead =
  { pc; addrs = Array.init n (fun _ -> Rng.int rng words); ahead }

let sweep_stream ~pc ~n ~words =
  { pc; addrs = Array.init n (fun i -> i * 8 mod words); ahead = 0 }

(* Streams advance one access each in turn, over their own hierarchy
   (attached to one shared LLC when there are several). *)
let replay ~config ~words streams =
  let streams = Array.of_list streams in
  let prepare () =
    let shared = Hierarchy.create_shared config in
    Array.mapi
      (fun i _ ->
        let h = Hierarchy.attach shared ~stream:i in
        Hierarchy.set_prefetch_limit h ~words;
        h)
      streams
  in
  let run hs =
    let n = Array.length streams.(0).addrs in
    let cycles = Array.make (Array.length streams) 0 in
    let ops = ref 0 in
    for i = 0 to n - 1 do
      for k = 0 to Array.length streams - 1 do
        let s = streams.(k) and h = hs.(k) in
        if s.ahead > 0 && i + s.ahead < n then begin
          Hierarchy.sw_prefetch h ~addr:s.addrs.(i + s.ahead) ~cycle:cycles.(k);
          incr ops
        end;
        let a = Hierarchy.demand_load h ~pc:s.pc ~addr:s.addrs.(i) ~cycle:cycles.(k) in
        cycles.(k) <- cycles.(k) + 1 + a.Hierarchy.latency;
        incr ops
      done
    done;
    !ops
  in
  rate prepare run

(* The footprint each workload's programs put on the hierarchy: random
   loads over a table 16x the LLC with prefetches 16 ahead (pgo-miss),
   random loads inside L2 (pgo-resident), and that random tenant
   against a line-by-line sweep on one shared LLC (corun-llc). *)
let hierarchy_replay ~seed (workload : Flow.workload) =
  let rng = Rng.create seed in
  let big = 1 lsl 22 in
  match workload with
  | Flow.Pgo_miss ->
    replay ~config:Hierarchy.default_config ~words:big
      [ random_stream rng ~pc:1 ~n:200_000 ~words:big ~ahead:16 ]
  | Flow.Pgo_resident ->
    let words = 1 lsl 14 in
    replay ~config:Hierarchy.default_config ~words
      [ random_stream rng ~pc:1 ~n:1_000_000 ~words ~ahead:0 ]
  | Flow.Corun_llc ->
    replay ~config:Flow.corun_config.Machine.hierarchy ~words:big
      [
        random_stream rng ~pc:1 ~n:150_000 ~words:big ~ahead:16;
        sweep_stream ~pc:2 ~n:150_000 ~words:(1 lsl 19);
      ]

(* ------------------------------------------------------------------ *)
(* Cache, MSHR and hardware-prefetcher primitives                      *)
(* ------------------------------------------------------------------ *)

let default = Hierarchy.default_config

let cache_insert ~seed =
  let rng = Rng.create seed in
  let lines = Array.init 1_000_000 (fun _ -> Rng.int rng (1 lsl 20)) in
  rate
    (fun () ->
      Cache.create ~size_bytes:default.Hierarchy.llc_size ~assoc:default.Hierarchy.llc_assoc
        ~line_bytes:default.Hierarchy.line_bytes)
    (fun c ->
      Array.iter (fun l -> ignore (Cache.insert c l)) lines;
      Array.length lines)

(* A fill every 16 cycles with DRAM latency: the buffers run full. *)
let mshr () =
  let n = 1_000_000 and latency = default.Hierarchy.dram_latency in
  rate
    (fun () -> Mshr.create ~capacity:default.Hierarchy.mshr_capacity)
    (fun m ->
      for i = 0 to n - 1 do
        let now = i * 16 in
        ignore (Mshr.pop_ready m ~now);
        ignore (Mshr.allocate m ~line:i ~ready_at:(now + latency) ~origin:Mshr.Demand)
      done;
      2 * n)

(* Four load PCs: two strided (one line and one word apart) and two
   random, half the accesses missing. *)
let hwpf ~seed =
  let n = 1_000_000 in
  let rng = Rng.create seed in
  let addrs =
    Array.init n (fun i ->
        match i land 3 with
        | 0 -> i * 2
        | 2 -> i / 4
        | _ -> Rng.int rng (1 lsl 22))
  in
  rate Hwpf.create (fun pf ->
      Array.iteri
        (fun i addr -> ignore (Hwpf.on_demand_access pf ~pc:(i land 3) ~addr ~miss:(i land 4 = 0)))
        addrs;
      n)

(* ------------------------------------------------------------------ *)
(* Superblock tier                                                     *)
(* ------------------------------------------------------------------ *)

let superblocks on = Machine.Compiled { superblocks = on }

(* Host seconds of the same unhinted run with the superblock tier off
   over on (the median of [reps] alternating rounds, so a drift in host
   speed hits both sides), and whether both engines agreed on every
   outcome. Builds happen before the clock starts. The co-run workload
   runs its co-run baseline, where Corun turns the tier off either
   way. *)
let superblock_gain ~size ~seed (workload : Flow.workload) =
  let time_both prepare =
    let timed on =
      let run = prepare () in
      Clock.wall (fun () -> run (superblocks on))
    in
    let rounds =
      List.init reps (fun _ ->
          let o_on, t_on = timed true in
          let o_off, t_off = timed false in
          (t_off /. t_on, o_on = o_off))
    in
    (Summary.median (List.map fst rounds), List.for_all snd rounds)
  in
  let solo (w : Workload.t) () =
    let inst = w.Workload.build () in
    fun engine ->
      [ Machine.execute ~engine ~args:inst.Workload.args ~mem:inst.Workload.mem inst.Workload.func ]
  in
  let co (pair : Programs.pair) () =
    let stream (w : Workload.t) =
      let i = w.Workload.build () in
      Corun.stream ~args:i.Workload.args ~name:w.Workload.name ~mem:i.Workload.mem i.Workload.func
    in
    let streams = [ stream pair.Programs.tenant; stream pair.Programs.corunner ] in
    fun engine ->
      List.map (fun s -> s.Corun.so_outcome) (Corun.run ~config:Flow.corun_config ~engine streams)
  in
  let prepares =
    match workload with
    | Flow.Pgo_miss -> List.map solo (Programs.pgo_miss size ~seed)
    | Flow.Pgo_resident -> List.map solo (Programs.pgo_resident size ~seed)
    | Flow.Corun_llc -> List.map co (Programs.corun_pairs size ~seed)
  in
  let results = List.map time_both prepares in
  (Summary.geomean (List.map fst results), List.for_all snd results)

(* ------------------------------------------------------------------ *)
(* Distance model                                                      *)
(* ------------------------------------------------------------------ *)

(* Eq. 1's peak fit over every iteration-time profile the pass
   collected: (seconds, fits). *)
let signal_fit (programs : Flow.program list) =
  let o = Profiler.default_options in
  let all =
    List.concat_map
      (fun (pr : Flow.program) ->
        List.map (fun lp -> lp.Profiler.iteration_times) pr.Flow.prof.Profiler.profiles)
      programs
  in
  let (), seconds =
    Clock.wall (fun () ->
        List.iter
          (fun times ->
            ignore
              (Model.distance_of_times ~finder:o.Profiler.finder
                 ~max_distance:o.Profiler.max_distance times))
          all)
  in
  (seconds, List.length all)
