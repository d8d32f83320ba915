module Pipeline = Aptget_core.Pipeline
module Meas_cache = Aptget_core.Meas_cache
module Profiler = Aptget_profile.Profiler
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Micro = Aptget_workloads.Micro
module Inject = Aptget_passes.Inject
module Machine = Aptget_machine.Machine
module Pool = Aptget_util.Pool
module Fingerprint = Aptget_ir.Fingerprint

type t = {
  quick : bool;
  lock : Mutex.t;
      (* guards the three tables below; simulations run outside it *)
  measurements : (string, Pipeline.measurement) Hashtbl.t;
  profiles : (string, Profiler.t) Hashtbl.t;
  programs : (string, int) Hashtbl.t; (* workload -> program fingerprint *)
  cache_dir : string option;
}

let create ?(quick = false) ?cache_dir () =
  let cache_dir =
    match cache_dir with Some _ as d -> d | None -> Meas_cache.dir_from_env ()
  in
  {
    quick;
    lock = Mutex.create ();
    measurements = Hashtbl.create 64;
    profiles = Hashtbl.create 16;
    programs = Hashtbl.create 16;
    cache_dir;
  }

let quick t = t.quick

let suite t =
  if not t.quick then Suite.default
  else
    [
      Suite.bfs ~name:"BFS-20K8"
        ~graph:(fun () -> Aptget_graph.Datasets.synthetic ~nodes:20_000 ~degree:8 ())
        ~input:"20K-d8";
      Aptget_workloads.Is.workload
        ~params:
          {
            Aptget_workloads.Is.n_keys = 65_536;
            key_range = 262_144;
            iterations = 1;
            seed = 11;
          }
        ~name:"IS-quick" ();
      Aptget_workloads.Hashjoin.workload
        ~params:
          {
            Aptget_workloads.Hashjoin.hj2_params with
            Aptget_workloads.Hashjoin.n_build = 65_536;
            n_probe = 32_768;
            n_buckets = 1 lsl 16;
          }
        ~name:"HJ2-quick" ();
      Aptget_workloads.Randacc.workload
        ~params:
          { Aptget_workloads.Randacc.table_words = 1 lsl 20;
            updates = 65_536;
            seed = 31;
          }
        ~name:"randAcc-quick" ();
    ]

let nested_suite t = List.filter (fun w -> w.Workload.nested) (suite t)

let micro_params t =
  if t.quick then
    { Micro.default_params with Micro.total = 32_768; table_words = 1 lsl 20 }
  else { Micro.default_params with Micro.total = 131_072; table_words = 1 lsl 22 }

let check (m : Pipeline.measurement) = Pipeline.verified_exn m

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_memo t key = locked t (fun () -> Hashtbl.find_opt t.measurements key)

(* First insertion wins so concurrent duplicate computations (possible
   only for callers bypassing [run_batch]'s dedup) converge on one
   record. The simulator is deterministic, so the loser computed the
   same numbers anyway. *)
let add_memo t key m =
  locked t (fun () ->
      match Hashtbl.find_opt t.measurements key with
      | Some m' -> m'
      | None ->
        Hashtbl.add t.measurements key m;
        m)

let program t (w : Workload.t) =
  match locked t (fun () -> Hashtbl.find_opt t.programs w.Workload.name) with
  | Some p -> p
  | None ->
    let p =
      (Fingerprint.fingerprint (w.Workload.build ()).Workload.func)
        .Fingerprint.program
    in
    locked t (fun () ->
        match Hashtbl.find_opt t.programs w.Workload.name with
        | Some p' -> p'
        | None ->
          Hashtbl.add t.programs w.Workload.name p;
          p)

(* Lab runs always use the default machine config and default profiler
   options, so those key components are constants here. *)
let profile_options = Profiler.options_summary Profiler.default_options

let cache_key t ~variant ~options (w : Workload.t) =
  Meas_cache.key ~variant ~workload:w.Workload.name ~program:(program t w)
    ~config:Machine.default_config ~options ()

let disk_load t ~variant ~options w =
  match t.cache_dir with
  | None -> None
  | Some dir -> Meas_cache.load ~dir (cache_key t ~variant ~options w)

let disk_store t ~variant ~options w m =
  match t.cache_dir with
  | None -> ()
  | Some dir -> Meas_cache.store ~dir (cache_key t ~variant ~options w) m

let profiled t (w : Workload.t) =
  match locked t (fun () -> Hashtbl.find_opt t.profiles w.Workload.name) with
  | Some p -> p
  | None ->
    let p = Pipeline.profile w in
    locked t (fun () ->
        match Hashtbl.find_opt t.profiles w.Workload.name with
        | Some p' -> p'
        | None ->
          Hashtbl.add t.profiles w.Workload.name p;
          p)

(* Externally computed measurements (e.g. the adaptive experiment's
   summed online/one-shot arms) enter the memo tables here so [summary]
   can surface them; they stay out of the persistent cache, whose keys
   describe single pipeline runs. *)
let record t ~workload ~variant m =
  ignore (add_memo t (workload ^ "/" ^ variant) (check m))

(* Derived purely from the memo caches: a workload appears once both
   its baseline and its APT-GET runs have been measured, so the bench
   harness can snapshot headline numbers without triggering new
   simulations. *)
let summary t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key m acc ->
          match Filename.chop_suffix_opt ~suffix:"/aptget" key with
          | None -> acc
          | Some name -> (
            match Hashtbl.find_opt t.measurements (name ^ "/baseline") with
            | None -> acc
            | Some base ->
              ( name,
                Pipeline.speedup ~baseline:base m,
                Pipeline.mpki_reduction ~baseline:base m )
              :: acc))
        t.measurements [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Batched, parallel prewarming                                        *)
(* ------------------------------------------------------------------ *)

type job =
  | Baseline of Workload.t
  | Aj of { distance : int option; w : Workload.t }
  | Aptget of Workload.t
  | Static of { distance : int; w : Workload.t }
  | Site of { site : Inject.site; w : Workload.t }

let job_workload = function
  | Baseline w | Aj { w; _ } | Aptget w | Static { w; _ } | Site { w; _ } -> w

let job_variant = function
  | Baseline _ -> "baseline"
  | Aj { distance; _ } ->
    Printf.sprintf "aj-%d"
      (Option.value ~default:Aptget_passes.Aj.default_distance distance)
  | Aptget _ -> "aptget"
  | Static { distance; _ } -> Printf.sprintf "static-%d" distance
  | Site { site; _ } -> "site-" ^ Inject.site_to_string site

(* Memo key is "<workload>/<variant>" — the same [variant] string feeds
   the persistent cache key. *)
let job_key j = (job_workload j).Workload.name ^ "/" ^ job_variant j

let job_needs_profile = function
  | Baseline _ | Aj _ -> false
  | Aptget _ | Static _ | Site _ -> true

let job_options j = if job_needs_profile j then profile_options else ""

let simulate t = function
  | Baseline w -> Pipeline.baseline w
  | Aj { distance; w } -> Pipeline.aj ?distance w
  | Aptget w -> Pipeline.with_hints ~hints:(profiled t w).Profiler.hints w
  | Static { distance; w } ->
    Pipeline.with_hints
      ~hints:(Pipeline.force_distance distance (profiled t w).Profiler.hints)
      w
  | Site { site; w } ->
    Pipeline.with_hints
      ~hints:(Pipeline.force_site site (profiled t w).Profiler.hints)
      w

let run_job t j =
  match find_memo t (job_key j) with
  | Some m -> m
  | None ->
    let variant = job_variant j and options = job_options j in
    let w = job_workload j in
    let m =
      match disk_load t ~variant ~options w with
      | Some m -> check m
      | None ->
        let m = check (simulate t j) in
        disk_store t ~variant ~options w m;
        m
    in
    add_memo t (job_key j) m

let baseline t w = run_job t (Baseline w)
let aj t ?distance w = run_job t (Aj { distance; w })
let aptget t w = run_job t (Aptget w)
let static_distance t ~distance w = run_job t (Static { distance; w })
let forced_site t site w = run_job t (Site { site; w })

(* Fan a batch of independent measurements across domains. Results land
   in the memo tables, so the subsequent (serial) table/JSON rendering
   reads exactly what a serial run would have computed: each memo key
   is measured at most once, by a deterministic simulation, and the
   persistent cache stores bit-identical records either way.

   Two stages keep the workers from racing on shared inputs: profiles
   (one per workload that any profile-guided job needs and neither the
   memo nor the persistent cache can supply) are computed first, then
   the measurements — each worker building its own memory, hierarchy
   and sampler via the pipeline. *)
let run_batch ?jobs t js =
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun j ->
        let key = job_key j in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          find_memo t key = None
        end)
      js
  in
  (* Preload persistent-cache hits so stage sizing below reflects only
     real simulation work. *)
  let todo =
    List.filter
      (fun j ->
        match
          disk_load t ~variant:(job_variant j) ~options:(job_options j)
            (job_workload j)
        with
        | Some m ->
          ignore (add_memo t (job_key j) (check m));
          false
        | None -> true)
      todo
  in
  let profile_needed =
    let names = Hashtbl.create 8 in
    List.filter_map
      (fun j ->
        let w = job_workload j in
        if
          job_needs_profile j
          && (not (Hashtbl.mem names w.Workload.name))
          && locked t (fun () ->
                 not (Hashtbl.mem t.profiles w.Workload.name))
        then begin
          Hashtbl.add names w.Workload.name ();
          Some w
        end
        else None)
      todo
  in
  List.iter
    (fun ((w : Workload.t), p) ->
      locked t (fun () ->
          if not (Hashtbl.mem t.profiles w.Workload.name) then
            Hashtbl.add t.profiles w.Workload.name p))
    (Pool.run ?jobs (fun w -> (w, Pipeline.profile w)) profile_needed);
  ignore (Pool.run ?jobs (run_job t) todo)
