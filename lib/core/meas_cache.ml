module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Inject = Aptget_passes.Inject
module Atomic_file = Aptget_store.Atomic_file
module Crc32 = Aptget_store.Crc32
module Fingerprint = Aptget_ir.Fingerprint

(* A key is its rendered string: every field that determines a
   deterministic simulation's result, '|'-separated. Collisions in the
   filename hash are caught by comparing this string on load. *)
type key = string

let render_hierarchy (h : Hierarchy.config) =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%b"
    h.Hierarchy.line_bytes h.Hierarchy.l1_size h.Hierarchy.l1_assoc
    h.Hierarchy.l1_latency h.Hierarchy.l2_size h.Hierarchy.l2_assoc
    h.Hierarchy.l2_latency h.Hierarchy.llc_size h.Hierarchy.llc_assoc
    h.Hierarchy.llc_latency h.Hierarchy.dram_latency h.Hierarchy.dram_min_gap
    h.Hierarchy.mshr_capacity h.Hierarchy.hw_prefetch

let render_config (c : Machine.config) =
  let core =
    match c.Machine.core with
    | Machine.Blocking -> "blocking"
    | Machine.Stall_on_use { window } -> Printf.sprintf "sou-%d" window
  in
  Printf.sprintf "%s;%d;%d;%s"
    (render_hierarchy c.Machine.hierarchy)
    c.Machine.max_instructions c.Machine.max_cycles core

let key ?(namespace = "") ~variant ~workload ~program ~config ?(options = "") () =
  String.concat "|"
    [
      "v2";
      namespace;
      variant;
      workload;
      Fingerprint.hex program;
      render_config config;
      options;
    ]

let dir_from_env () =
  match Sys.getenv_opt "APTGET_CACHE" with
  | Some d when String.trim d <> "" -> Some d
  | _ -> None

let path_of ~dir k = Filename.concat dir ("m-" ^ Crc32.hex (Crc32.string k) ^ ".meas")

(* ------------------------------------------------------------------ *)
(* Record rendering                                                    *)
(* ------------------------------------------------------------------ *)

let magic = "aptget-meas v1"

let render_counters (c : Hierarchy.counters) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d"
    c.Hierarchy.demand_loads c.Hierarchy.hits_l1 c.Hierarchy.hits_l2
    c.Hierarchy.hits_llc c.Hierarchy.dram_fills_demand
    c.Hierarchy.load_hit_pre_sw_pf c.Hierarchy.offcore_all_data_rd
    c.Hierarchy.offcore_demand_data_rd c.Hierarchy.sw_prefetch_issued
    c.Hierarchy.sw_prefetch_useless c.Hierarchy.sw_prefetch_dropped
    c.Hierarchy.hw_prefetch_issued c.Hierarchy.stall_cycles_l2
    c.Hierarchy.stall_cycles_llc c.Hierarchy.stall_cycles_dram
    c.Hierarchy.sw_prefetch_early_evict

let render (k : key) (m : Pipeline.measurement) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  line "key %s" (String.escaped k);
  line "workload %s" (String.escaped m.Pipeline.workload);
  let o = m.Pipeline.outcome in
  line "outcome %d %d %d %d %s" o.Machine.cycles o.Machine.instructions
    o.Machine.dyn_loads o.Machine.dyn_prefetches
    (match o.Machine.ret with None -> "none" | Some r -> string_of_int r);
  line "counters %s" (render_counters o.Machine.counters);
  (match m.Pipeline.verified with
  | Ok () -> line "verified ok"
  | Error e -> line "verified error %s" (String.escaped e));
  List.iter
    (fun (i : Inject.injected) ->
      line "inj %d %d %s %d %d" i.Inject.spec.Inject.load_pc
        i.Inject.spec.Inject.distance
        (Inject.site_to_string i.Inject.spec.Inject.site)
        i.Inject.spec.Inject.sweep i.Inject.cloned_instrs)
    m.Pipeline.injected;
  List.iter
    (fun (pc, why) -> line "skip %d %s" pc (String.escaped why))
    m.Pipeline.skipped;
  let body = Buffer.contents b in
  body ^ Printf.sprintf "crc %s\n" (Crc32.hex (Crc32.string body))

(* ------------------------------------------------------------------ *)
(* Record parsing — any defect is a miss, never an exception.          *)
(* ------------------------------------------------------------------ *)

exception Bad

let unescape s = Scanf.unescaped s

(* Split off the first word; the rest (after one space) is the payload. *)
let cut line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let ints s = List.map int_of_string (String.split_on_char ' ' s)

let parse (k : key) (text : string) : Pipeline.measurement option =
  try
    (* Checksum first: everything up to the final "crc " line. *)
    let crc_at =
      match String.rindex_opt (String.trim text) '\n' with
      | None -> raise Bad
      | Some i -> i + 1
    in
    let body = String.sub text 0 crc_at in
    let crc_line = String.trim (String.sub text crc_at (String.length text - crc_at)) in
    (match cut crc_line with
    | "crc", h when Crc32.of_hex h = Some (Crc32.string body) -> ()
    | _ -> raise Bad);
    let lines = String.split_on_char '\n' (String.trim body) in
    let workload = ref "" and outcome = ref None and counters = ref None in
    let verified = ref None in
    let injected = ref [] and skipped = ref [] in
    List.iteri
      (fun i line ->
        if i = 0 then (if line <> magic then raise Bad)
        else
          match cut line with
          | "key", payload -> if unescape payload <> k then raise Bad
          | "workload", payload -> workload := unescape payload
          | "outcome", payload -> (
            match String.split_on_char ' ' payload with
            | [ cy; ins; dl; dp; ret ] ->
              let ret =
                if ret = "none" then None else Some (int_of_string ret)
              in
              outcome :=
                Some
                  ( int_of_string cy,
                    int_of_string ins,
                    int_of_string dl,
                    int_of_string dp,
                    ret )
            | _ -> raise Bad)
          | "counters", payload -> (
            match ints payload with
            (* 16 ints; older 15-int records fail here and become cache
               misses, which is the safe outcome. *)
            | [ a; b; c; d; e; f; g; h; i; j; k; l; m; n; o; p ] ->
              counters :=
                Some
                  {
                    Hierarchy.demand_loads = a;
                    hits_l1 = b;
                    hits_l2 = c;
                    hits_llc = d;
                    dram_fills_demand = e;
                    load_hit_pre_sw_pf = f;
                    offcore_all_data_rd = g;
                    offcore_demand_data_rd = h;
                    sw_prefetch_issued = i;
                    sw_prefetch_useless = j;
                    sw_prefetch_dropped = k;
                    hw_prefetch_issued = l;
                    stall_cycles_l2 = m;
                    stall_cycles_llc = n;
                    stall_cycles_dram = o;
                    sw_prefetch_early_evict = p;
                  }
            | _ -> raise Bad)
          | "verified", "ok" -> verified := Some (Ok ())
          | "verified", payload -> (
            match cut payload with
            | "error", msg -> verified := Some (Error (unescape msg))
            | _ -> raise Bad)
          | "inj", payload -> (
            match String.split_on_char ' ' payload with
            | [ pc; dist; site; sweep; cloned ] ->
              let site =
                match site with
                | "inner" -> Inject.Inner
                | "outer" -> Inject.Outer
                | _ -> raise Bad
              in
              injected :=
                {
                  Inject.spec =
                    {
                      Inject.load_pc = int_of_string pc;
                      distance = int_of_string dist;
                      site;
                      sweep = int_of_string sweep;
                    };
                  cloned_instrs = int_of_string cloned;
                }
                :: !injected
            | _ -> raise Bad)
          | "skip", payload -> (
            match cut payload with
            | pc, why -> skipped := (int_of_string pc, unescape why) :: !skipped)
          (* Unknown lines, including the "wall" line of records written
             before that field was dropped, make the record a miss. *)
          | _ -> raise Bad)
      lines;
    match (!outcome, !counters, !verified) with
    | Some (cycles, instructions, dyn_loads, dyn_prefetches, ret), Some c,
      Some verified ->
      Some
        {
          Pipeline.workload = !workload;
          outcome =
            {
              Machine.cycles;
              instructions;
              dyn_loads;
              dyn_prefetches;
              ret;
              counters = c;
            };
          verified;
          injected = List.rev !injected;
          skipped = List.rev !skipped;
        }
    | _ -> raise Bad
  with _ -> None

module Metrics = Aptget_obs.Metrics

let load ~dir k =
  match Atomic_file.read ~path:(path_of ~dir k) with
  | Error _ ->
    Metrics.incr "meas_cache.miss";
    None
  | Ok text -> (
    match parse k text with
    | Some m ->
      Metrics.incr "meas_cache.hit";
      Some m
    | None ->
      (* Unreadable, checksum-failed or mismatched record: distinguish
         corruption from a plain absent-file miss in the counters. *)
      Metrics.incr "meas_cache.corrupt";
      Metrics.incr "meas_cache.miss";
      None)

let store ~dir k m =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    Atomic_file.write ~path:(path_of ~dir k) (render k m);
    Metrics.incr "meas_cache.store"
  with _ -> ()

(* ------------------------------------------------------------------ *)
(* Scoped front door: a (directory, namespace) pair. The serve daemon  *)
(* holds one scope per tenant, so two tenants never share a record     *)
(* even when their requests are bit-identical.                         *)
(* ------------------------------------------------------------------ *)

type scope = { dir : string; namespace : string }

let cached scope ~variant ~workload ~program ~config ?options f =
  let k =
    key ~namespace:scope.namespace ~variant ~workload ~program ~config
      ?options ()
  in
  match load ~dir:scope.dir k with
  | Some m -> m
  | None ->
    let m = f () in
    store ~dir:scope.dir k m;
    m
