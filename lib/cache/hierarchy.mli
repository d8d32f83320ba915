(** Three-level inclusive cache hierarchy with fill buffers and
    hardware prefetching — the memory system of the simulated machine
    (Table 2 of the paper, scaled; see DESIGN.md).

    Latency semantics (the heart of prefetch timeliness):
    - a demand load blocks for the latency of the level that serves it;
    - a software prefetch is non-blocking: it allocates a fill buffer
      whose completion installs the line, and is dropped when the
      buffers are full;
    - a demand load whose line is still in flight stalls only for the
      *remaining* fill time and is recorded as a late prefetch
      ([LOAD_HIT_PRE.SW_PF]) when the fill came from a software
      prefetch. *)

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
      (** minimum cycles between DRAM fills (a bandwidth bound);
          0 = unlimited bandwidth (the default model) *)
  mshr_capacity : int;
  hw_prefetch : bool;
}

val default_config : config
(** 32 KiB/8-way L1 (4 cyc), 256 KiB/8-way L2 (14 cyc), 2 MiB/16-way
    LLC (50 cyc), DRAM 250 cyc, 16 MSHRs, HW prefetch on. Sizes are the
    paper's Xeon scaled down ~10x so that interpreter-feasible working
    sets still exceed the LLC. *)

type level = L1 | L2 | Llc | Dram

type access = {
  latency : int;         (** cycles the demand load blocks the core *)
  served_from : level;
      (** [Dram] also for a fill-buffer hit on an in-flight fill; the
          counters tell the two apart *)
}

type counters = {
  mutable demand_loads : int;
  mutable hits_l1 : int;
  mutable hits_l2 : int;
  mutable hits_llc : int;
  mutable dram_fills_demand : int;
  mutable load_hit_pre_sw_pf : int;
      (** demand loads that hit an in-flight fill initiated by a
          software prefetch *)
  mutable offcore_all_data_rd : int;
  mutable offcore_demand_data_rd : int;
  mutable sw_prefetch_issued : int;  (** prefetches that allocated a fill *)
  mutable sw_prefetch_useless : int;
      (** prefetches that hit in L1/L2 (no-op) *)
  mutable sw_prefetch_dropped : int;  (** dropped: fill buffers full *)
  mutable hw_prefetch_issued : int;
  mutable stall_cycles_l2 : int;
  mutable stall_cycles_llc : int;
  mutable stall_cycles_dram : int;  (** includes fill-buffer waits *)
  mutable sw_prefetch_early_evict : int;
      (** SW-prefetched lines evicted from the LLC before any demand
          load touched them — the prefetch landed too early (or the
          distance overshot the reuse), polluting the cache for
          nothing. The dual of [load_hit_pre_sw_pf] (too late). *)
}
(** Fields are mutable for the simulator's in-place updates;
    {!counters} returns a private snapshot copy, so treat a returned
    record as a value. *)

val sub_counters : counters -> counters -> counters
(** [sub_counters a b] is the field-wise difference [a - b]: the
    counter activity between two snapshots of the same hierarchy,
    i.e. over one execution window. *)

val add_counters : counters -> counters -> counters
(** Field-wise sum: aggregate counters across independent runs (e.g.
    per-segment measurements summed into one record). *)

type t
(** One stream's view of the memory system: private L1/L2, fill
    buffers and hardware prefetcher over a {!shared} LLC/DRAM. *)

type shared
(** The levels co-running streams contend on: the LLC and the DRAM
    channel. Create one, then {!attach} a hierarchy per stream. *)

val create_shared : config -> shared

val attach : shared -> stream:int -> t
(** Attach a stream (private L1/L2/MSHR/prefetcher/counters) to a
    shared LLC/DRAM. [stream] must be unique per attachment and in
    [0, 255]; it offsets the stream's line ids so tenants whose
    memories all start at word 0 do not alias in the shared LLC, while
    preserving set indexing (streams contend for the same sets). An
    LLC eviction invalidates the victim in every attached stream's
    private levels (inclusion).

    Raises [Invalid_argument] on an out-of-range stream id. *)

val create : config -> t
(** [attach (create_shared cfg) ~stream:0] — the solo machine. *)

val config : t -> config

val set_prefetch_limit : t -> words:int -> unit
(** Clamp the hardware prefetcher to the stream's backing region:
    no emitted target may reach at or past the line containing word
    [words - 1]'s successor (i.e. targets stay within the allocated
    extent). Non-positive [words] removes the bound. *)

val demand_load : t -> pc:int -> addr:int -> cycle:int -> access
(** Perform a demand load of word address [addr] at time [cycle],
    returning its blocking latency and classification. Trains and
    triggers the hardware prefetcher. *)

val sw_prefetch : t -> addr:int -> cycle:int -> unit
(** Issue a software prefetch for the line of [addr]; non-blocking. *)

val counters : t -> counters
(** Snapshot of all counters since creation (or [reset_counters]). *)

val reset_counters : t -> unit
(** Zero the counters, keeping cache contents warm (used to exclude
    workload setup from measurement). *)

val flush : t -> unit
(** Empty caches (including the shared LLC), fill buffers, and this
    stream's counters. *)
