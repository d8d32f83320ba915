type config = {
  line_bytes : int;
  l1_size : int;
  l1_assoc : int;
  l1_latency : int;
  l2_size : int;
  l2_assoc : int;
  l2_latency : int;
  llc_size : int;
  llc_assoc : int;
  llc_latency : int;
  dram_latency : int;
  dram_min_gap : int;
  mshr_capacity : int;
  hw_prefetch : bool;
}

let default_config =
  {
    line_bytes = 64;
    l1_size = 32 * 1024;
    l1_assoc = 8;
    l1_latency = 4;
    l2_size = 256 * 1024;
    l2_assoc = 8;
    l2_latency = 14;
    llc_size = 2 * 1024 * 1024;
    llc_assoc = 16;
    llc_latency = 50;
    dram_latency = 250;
    dram_min_gap = 0;
    mshr_capacity = 16;
    hw_prefetch = true;
  }

type level = L1 | L2 | Llc | Dram

type access = { latency : int; served_from : level }

(* Fields are mutable so the per-access hot path bumps them in place;
   a functional [{ c with ... }] update allocated a fresh 15-field
   record on every counter event (several per demand load). External
   readers get a snapshot copy from [counters]. *)
type counters = {
  mutable demand_loads : int;
  mutable hits_l1 : int;
  mutable hits_l2 : int;
  mutable hits_llc : int;
  mutable dram_fills_demand : int;
  mutable load_hit_pre_sw_pf : int;
  mutable offcore_all_data_rd : int;
  mutable offcore_demand_data_rd : int;
  mutable sw_prefetch_issued : int;
  mutable sw_prefetch_useless : int;
  mutable sw_prefetch_dropped : int;
  mutable hw_prefetch_issued : int;
  mutable stall_cycles_l2 : int;
  mutable stall_cycles_llc : int;
  mutable stall_cycles_dram : int;
  mutable sw_prefetch_early_evict : int;
}

let zero_counters () =
  {
    demand_loads = 0;
    hits_l1 = 0;
    hits_l2 = 0;
    hits_llc = 0;
    dram_fills_demand = 0;
    load_hit_pre_sw_pf = 0;
    offcore_all_data_rd = 0;
    offcore_demand_data_rd = 0;
    sw_prefetch_issued = 0;
    sw_prefetch_useless = 0;
    sw_prefetch_dropped = 0;
    hw_prefetch_issued = 0;
    stall_cycles_l2 = 0;
    stall_cycles_llc = 0;
    stall_cycles_dram = 0;
    sw_prefetch_early_evict = 0;
  }

(* Field-wise [a - b]: counter deltas over a window of execution. *)
let sub_counters (a : counters) (b : counters) =
  {
    demand_loads = a.demand_loads - b.demand_loads;
    hits_l1 = a.hits_l1 - b.hits_l1;
    hits_l2 = a.hits_l2 - b.hits_l2;
    hits_llc = a.hits_llc - b.hits_llc;
    dram_fills_demand = a.dram_fills_demand - b.dram_fills_demand;
    load_hit_pre_sw_pf = a.load_hit_pre_sw_pf - b.load_hit_pre_sw_pf;
    offcore_all_data_rd = a.offcore_all_data_rd - b.offcore_all_data_rd;
    offcore_demand_data_rd = a.offcore_demand_data_rd - b.offcore_demand_data_rd;
    sw_prefetch_issued = a.sw_prefetch_issued - b.sw_prefetch_issued;
    sw_prefetch_useless = a.sw_prefetch_useless - b.sw_prefetch_useless;
    sw_prefetch_dropped = a.sw_prefetch_dropped - b.sw_prefetch_dropped;
    hw_prefetch_issued = a.hw_prefetch_issued - b.hw_prefetch_issued;
    stall_cycles_l2 = a.stall_cycles_l2 - b.stall_cycles_l2;
    stall_cycles_llc = a.stall_cycles_llc - b.stall_cycles_llc;
    stall_cycles_dram = a.stall_cycles_dram - b.stall_cycles_dram;
    sw_prefetch_early_evict = a.sw_prefetch_early_evict - b.sw_prefetch_early_evict;
  }

(* Field-wise [a + b]: aggregating counters across runs (e.g. summing
   per-segment measurements into a whole-campaign record). *)
let add_counters (a : counters) (b : counters) =
  {
    demand_loads = a.demand_loads + b.demand_loads;
    hits_l1 = a.hits_l1 + b.hits_l1;
    hits_l2 = a.hits_l2 + b.hits_l2;
    hits_llc = a.hits_llc + b.hits_llc;
    dram_fills_demand = a.dram_fills_demand + b.dram_fills_demand;
    load_hit_pre_sw_pf = a.load_hit_pre_sw_pf + b.load_hit_pre_sw_pf;
    offcore_all_data_rd = a.offcore_all_data_rd + b.offcore_all_data_rd;
    offcore_demand_data_rd = a.offcore_demand_data_rd + b.offcore_demand_data_rd;
    sw_prefetch_issued = a.sw_prefetch_issued + b.sw_prefetch_issued;
    sw_prefetch_useless = a.sw_prefetch_useless + b.sw_prefetch_useless;
    sw_prefetch_dropped = a.sw_prefetch_dropped + b.sw_prefetch_dropped;
    hw_prefetch_issued = a.hw_prefetch_issued + b.hw_prefetch_issued;
    stall_cycles_l2 = a.stall_cycles_l2 + b.stall_cycles_l2;
    stall_cycles_llc = a.stall_cycles_llc + b.stall_cycles_llc;
    stall_cycles_dram = a.stall_cycles_dram + b.stall_cycles_dram;
    sw_prefetch_early_evict = a.sw_prefetch_early_evict + b.sw_prefetch_early_evict;
  }

(* The LLC and the DRAM channel are *shared* resources: several
   streams (co-running tenants) can attach to one [shared], each with
   private L1/L2/MSHR/prefetcher/counters. The solo case is a shared
   level with a single attached stream, and takes exactly the code
   paths it always did.

   Per-stream line ids are kept disjoint by offsetting every line with
   a per-stream base ([stream lsl 44]): workload memories all start at
   word address 0, and without the offset two tenants' address spaces
   would alias in the shared LLC. The base is a multiple of every
   power-of-two set count, so set indexing (and hence conflict
   behaviour) is unchanged — tenants genuinely contend for the same
   sets, as they would behind a physical indexer. *)
type t = {
  cfg : config;
  shared : shared;
  l1 : Cache.t;
  l2 : Cache.t;
  mshr : Mshr.t;
  hwpf : Hwpf.t;
  mutable c : counters;
  line_base : int;
      (* per-stream offset added to every line id (0 for stream 0 /
         the solo path) *)
  line_shift : int;
      (* log2 of words per line when that is a power of two, else -1;
         lets [line_of] shift instead of running an integer division on
         every access *)
}

and shared = {
  s_cfg : config;
  llc : Cache.t;
  mutable next_dram_slot : int;
      (* earliest cycle the DRAM channel can start another fill *)
  pending_sw : (int, t) Hashtbl.t;
      (* lines installed by a SW-prefetch fill and not yet demand-used,
         mapped to the issuing stream: an LLC eviction of one is a
         too-early prefetch charged to that stream. The value is the
         stream itself (not its counters record) so attribution
         survives [reset_counters], which swaps the record out. *)
  mutable attached : t list;
      (* in attach order; inclusion victims invalidate every stream's
         private levels *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let create_shared cfg =
  {
    s_cfg = cfg;
    llc =
      Cache.create ~size_bytes:cfg.llc_size ~assoc:cfg.llc_assoc ~line_bytes:cfg.line_bytes;
    next_dram_slot = 0;
    pending_sw = Hashtbl.create 64;
    attached = [];
  }

let attach shared ~stream =
  if stream < 0 || stream > 255 then
    invalid_arg "Hierarchy.attach: stream id out of range";
  let cfg = shared.s_cfg in
  let t =
    {
      cfg;
      shared;
      l1 = Cache.create ~size_bytes:cfg.l1_size ~assoc:cfg.l1_assoc ~line_bytes:cfg.line_bytes;
      l2 = Cache.create ~size_bytes:cfg.l2_size ~assoc:cfg.l2_assoc ~line_bytes:cfg.line_bytes;
      mshr = Mshr.create ~capacity:cfg.mshr_capacity;
      hwpf = (if cfg.hw_prefetch then Hwpf.create () else Hwpf.disabled ());
      c = zero_counters ();
      line_base = stream lsl 44;
      line_shift =
        (if cfg.line_bytes mod 8 = 0 && is_pow2 (cfg.line_bytes / 8) then
           log2 (cfg.line_bytes / 8)
         else -1);
    }
  in
  shared.attached <- shared.attached @ [ t ];
  t

let create cfg = attach (create_shared cfg) ~stream:0

let config t = t.cfg

let set_prefetch_limit t ~words =
  let wpl = Aptget_mem.Memory.words_per_line in
  let lines = if words <= 0 then 0 else (words + wpl - 1) / wpl in
  Hwpf.set_line_limit t.hwpf ~lines

(* Install a line everywhere (inclusive hierarchy). An LLC eviction
   invalidates the inner levels — of every attached stream — to
   preserve inclusion; line ids are per-stream disjoint, so at most one
   stream's private levels actually hold the victim. *)
let install_all t line =
  (match Cache.insert t.shared.llc line with
  | Some victim ->
    (match t.shared.attached with
    | [ only ] ->
      (* Solo fast path: no list traversal on the per-fill hot path. *)
      Cache.invalidate only.l2 victim;
      Cache.invalidate only.l1 victim
    | streams ->
      List.iter
        (fun s ->
          Cache.invalidate s.l2 victim;
          Cache.invalidate s.l1 victim)
        streams);
    (match Hashtbl.find_opt t.shared.pending_sw victim with
    | Some owner ->
      Hashtbl.remove t.shared.pending_sw victim;
      owner.c.sw_prefetch_early_evict <- owner.c.sw_prefetch_early_evict + 1
    | None -> ())
  | None -> ());
  ignore (Cache.insert t.l2 line);
  ignore (Cache.insert t.l1 line)

let drain_fills t ~cycle =
  (* Pop first: the MSHR is empty on most accesses and the match keeps
     the iteration closure from being allocated on that path. *)
  match Mshr.pop_ready t.mshr ~now:cycle with
  | [] -> ()
  | ready ->
    List.iter
      (fun (e : Mshr.entry) ->
        if e.origin = Mshr.Sw_prefetch then
          Hashtbl.replace t.shared.pending_sw e.line t;
        install_all t e.line)
      ready

(* [addr * 8 / line_bytes], as a shift on the all-but-universal
   power-of-two configs, plus the stream's line base. Negative
   addresses (possible transiently: the hierarchy is consulted before
   the memory bounds check raises) keep the truncating-division
   rounding of the original expression. *)
let line_of t addr =
  t.line_base
  +
  if addr >= 0 && t.line_shift >= 0 then addr lsr t.line_shift
  else addr * 8 / t.cfg.line_bytes

(* Claim a DRAM channel slot: with a bandwidth bound, back-to-back
   fills are spaced [dram_min_gap] cycles apart and queueing delay adds
   to the fill's completion time. The channel is shared, so co-running
   streams queue behind each other. *)
let dram_start t ~cycle =
  if t.cfg.dram_min_gap <= 0 then cycle
  else begin
    let start = max cycle t.shared.next_dram_slot in
    t.shared.next_dram_slot <- start + t.cfg.dram_min_gap;
    start
  end

(* Start a fill for [line] if it is not cached anywhere and not already
   in flight. Returns true if a fill buffer was allocated. *)
let start_fill t ~line ~cycle ~origin =
  if Cache.probe t.l1 line || Cache.probe t.l2 line then false
  else begin
    let from_dram = not (Cache.probe t.shared.llc line) in
    let ready_at =
      if from_dram then dram_start t ~cycle + t.cfg.dram_latency
      else cycle + t.cfg.llc_latency
    in
    let ok = Mshr.allocate t.mshr ~line ~ready_at ~origin in
    if ok && from_dram then
      t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
    ok
  end

(* The prefetcher trains on raw (un-offset) addresses and emits raw
   line indices, so its extent clamp composes with the stream offset;
   the base is added when the fill enters the hierarchy. *)
let hw_prefetch_lines t ~pc ~addr ~miss ~cycle =
  match Hwpf.on_demand_access t.hwpf ~pc ~addr ~miss with
  | [] -> ()
  | lines ->
    List.iter
      (fun line ->
        if start_fill t ~line:(t.line_base + line) ~cycle ~origin:Mshr.Hw_prefetch
        then t.c.hw_prefetch_issued <- t.c.hw_prefetch_issued + 1)
      lines

let demand_load t ~pc ~addr ~cycle =
  drain_fills t ~cycle;
  let line = line_of t addr in
  if Hashtbl.length t.shared.pending_sw <> 0 then
    Hashtbl.remove t.shared.pending_sw line;
  t.c.demand_loads <- t.c.demand_loads + 1;
  match Mshr.find t.mshr line with
  | Some entry ->
    (* Fill in flight: wait out the remainder, then it behaves like an
       L1 hit. The real counter treats this as a cache miss. *)
    let wait = max 0 (entry.ready_at - cycle) in
    let late_sw = entry.origin = Mshr.Sw_prefetch in
    Mshr.remove t.mshr line;
    install_all t line;
    if late_sw then t.c.load_hit_pre_sw_pf <- t.c.load_hit_pre_sw_pf + 1;
    t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
    t.c.offcore_demand_data_rd <- t.c.offcore_demand_data_rd + 1;
    t.c.stall_cycles_dram <- t.c.stall_cycles_dram + wait;
    hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
    { latency = wait + t.cfg.l1_latency; served_from = Dram }
  | None ->
    if Cache.touch t.l1 line then begin
      t.c.hits_l1 <- t.c.hits_l1 + 1;
      hw_prefetch_lines t ~pc ~addr ~miss:false ~cycle;
      { latency = t.cfg.l1_latency; served_from = L1 }
    end
    else if Cache.touch t.l2 line then begin
      ignore (Cache.insert t.l1 line);
      t.c.hits_l2 <- t.c.hits_l2 + 1;
      t.c.stall_cycles_l2 <-
        t.c.stall_cycles_l2 + t.cfg.l2_latency - t.cfg.l1_latency;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      { latency = t.cfg.l2_latency; served_from = L2 }
    end
    else if Cache.touch t.shared.llc line then begin
      ignore (Cache.insert t.l2 line);
      ignore (Cache.insert t.l1 line);
      t.c.hits_llc <- t.c.hits_llc + 1;
      t.c.stall_cycles_llc <-
        t.c.stall_cycles_llc + t.cfg.llc_latency - t.cfg.l1_latency;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      { latency = t.cfg.llc_latency; served_from = Llc }
    end
    else begin
      install_all t line;
      let start = dram_start t ~cycle in
      let latency = start - cycle + t.cfg.dram_latency in
      t.c.dram_fills_demand <- t.c.dram_fills_demand + 1;
      t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
      t.c.offcore_demand_data_rd <- t.c.offcore_demand_data_rd + 1;
      t.c.stall_cycles_dram <-
        t.c.stall_cycles_dram + latency - t.cfg.l1_latency;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      { latency; served_from = Dram }
    end

let sw_prefetch t ~addr ~cycle =
  drain_fills t ~cycle;
  let line = line_of t addr in
  if Cache.probe t.l1 line || Cache.probe t.l2 line then
    t.c.sw_prefetch_useless <- t.c.sw_prefetch_useless + 1
  else if Mshr.find t.mshr line <> None then
    (* Coalesces with the in-flight fill. *)
    t.c.sw_prefetch_useless <- t.c.sw_prefetch_useless + 1
  else if start_fill t ~line ~cycle ~origin:Mshr.Sw_prefetch then
    t.c.sw_prefetch_issued <- t.c.sw_prefetch_issued + 1
  else t.c.sw_prefetch_dropped <- t.c.sw_prefetch_dropped + 1

(* Snapshot copy: the live record keeps mutating after this call. *)
let counters t = { t.c with demand_loads = t.c.demand_loads }
let reset_counters t = t.c <- zero_counters ()

(* Flushing a stream also empties the shared levels (the solo
   behaviour); co-run drivers flush before any stream starts. *)
let flush t =
  Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.clear t.shared.llc;
  Mshr.clear t.mshr;
  t.shared.next_dram_slot <- 0;
  Hashtbl.reset t.shared.pending_sw;
  reset_counters t
