module Cache = Aptget_cache.Cache
module Mshr = Aptget_cache.Mshr
module Hwpf = Aptget_cache.Hwpf
module Hierarchy = Aptget_cache.Hierarchy

(* ---------------- Cache ---------------- *)

let small_cache () = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64
(* 1024/2/64 = 8 sets, 2 ways *)

let test_cache_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "cold miss" false (Cache.probe c 5);
  ignore (Cache.insert c 5);
  Alcotest.(check bool) "hit" true (Cache.probe c 5);
  Alcotest.(check bool) "touch hit" true (Cache.touch c 5)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* lines 0, 8, 16 map to set 0 (8 sets). *)
  ignore (Cache.insert c 0);
  ignore (Cache.insert c 8);
  ignore (Cache.touch c 0);
  (* 8 is now LRU; inserting 16 must evict it. *)
  (match Cache.insert c 16 with
  | Some v -> Alcotest.(check int) "evicts LRU" 8 v
  | None -> Alcotest.fail "expected an eviction");
  Alcotest.(check bool) "0 survives" true (Cache.probe c 0);
  Alcotest.(check bool) "8 gone" false (Cache.probe c 8)

let test_cache_insert_refreshes () =
  let c = small_cache () in
  ignore (Cache.insert c 0);
  ignore (Cache.insert c 8);
  ignore (Cache.insert c 0);
  (* re-insert refreshes 0 *)
  (match Cache.insert c 16 with
  | Some v -> Alcotest.(check int) "evicts 8" 8 v
  | None -> Alcotest.fail "expected an eviction")

let test_cache_sets_isolated () =
  let c = small_cache () in
  ignore (Cache.insert c 0);
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  Alcotest.(check bool) "different sets coexist" true
    (Cache.probe c 0 && Cache.probe c 1 && Cache.probe c 2)

let test_cache_invalidate_clear () =
  let c = small_cache () in
  ignore (Cache.insert c 3);
  Cache.invalidate c 3;
  Alcotest.(check bool) "invalidated" false (Cache.probe c 3);
  ignore (Cache.insert c 4);
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.occupancy c)

let test_cache_bad_geometry () =
  Alcotest.(check bool) "non-pow2 sets rejected" true
    (try
       ignore (Cache.create ~size_bytes:192 ~assoc:1 ~line_bytes:64);
       false
     with Invalid_argument _ -> true)

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list_of_size Gen.(0 -- 200) (int_bound 500))
    (fun lines ->
      let c = small_cache () in
      List.iter (fun l -> ignore (Cache.insert c l)) lines;
      Cache.occupancy c <= 16)

let prop_inserted_line_present_or_evicted =
  QCheck.Test.make ~name:"last inserted line always present" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100))
    (fun lines ->
      let c = small_cache () in
      List.iter (fun l -> ignore (Cache.insert c l)) lines;
      Cache.probe c (List.nth lines (List.length lines - 1)))

(* ---------------- MSHR ---------------- *)

let test_mshr_allocate_find () =
  let m = Mshr.create ~capacity:2 in
  Alcotest.(check bool) "alloc" true
    (Mshr.allocate m ~line:1 ~ready_at:10 ~origin:Mshr.Sw_prefetch);
  (match Mshr.find m 1 with
  | Some e -> Alcotest.(check int) "ready_at" 10 e.Mshr.ready_at
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "coalesce rejected" false
    (Mshr.allocate m ~line:1 ~ready_at:20 ~origin:Mshr.Demand)

let test_mshr_capacity () =
  let m = Mshr.create ~capacity:2 in
  ignore (Mshr.allocate m ~line:1 ~ready_at:1 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:2 ~ready_at:1 ~origin:Mshr.Demand);
  Alcotest.(check bool) "full" false
    (Mshr.allocate m ~line:3 ~ready_at:1 ~origin:Mshr.Demand);
  Alcotest.(check int) "in flight" 2 (Mshr.in_flight m)

let test_mshr_pop_ready () =
  let m = Mshr.create ~capacity:4 in
  ignore (Mshr.allocate m ~line:1 ~ready_at:30 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:2 ~ready_at:10 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:3 ~ready_at:50 ~origin:Mshr.Demand);
  let ready = Mshr.pop_ready m ~now:30 in
  Alcotest.(check (list int)) "completion order" [ 2; 1 ]
    (List.map (fun (e : Mshr.entry) -> e.Mshr.line) ready);
  Alcotest.(check int) "one left" 1 (Mshr.in_flight m)

let test_mshr_remove () =
  let m = Mshr.create ~capacity:4 in
  ignore (Mshr.allocate m ~line:7 ~ready_at:5 ~origin:Mshr.Demand);
  Mshr.remove m 7;
  Alcotest.(check bool) "removed" true (Mshr.find m 7 = None)

(* ---------------- Hwpf ---------------- *)

let test_hwpf_stride_detection () =
  let h = Hwpf.create ~degree:2 () in
  let pc = 42 in
  ignore (Hwpf.on_demand_access h ~pc ~addr:0 ~miss:false);
  ignore (Hwpf.on_demand_access h ~pc ~addr:16 ~miss:false);
  (* second identical stride -> confident *)
  let t = Hwpf.on_demand_access h ~pc ~addr:32 ~miss:false in
  Alcotest.(check bool) "prefetches ahead" true (List.mem 6 t)
  (* addr 48 -> line 6, addr 64 -> line 8 *)

let test_hwpf_next_line_on_miss () =
  let h = Hwpf.create () in
  let t = Hwpf.on_demand_access h ~pc:1 ~addr:64 ~miss:true in
  Alcotest.(check bool) "next line" true (List.mem 9 t)

let test_hwpf_irregular_silent () =
  let h = Hwpf.create () in
  let pc = 9 in
  ignore (Hwpf.on_demand_access h ~pc ~addr:100 ~miss:false);
  ignore (Hwpf.on_demand_access h ~pc ~addr:7 ~miss:false);
  let t = Hwpf.on_demand_access h ~pc ~addr:5000 ~miss:false in
  Alcotest.(check (list int)) "no stride prefetch" [] t

let test_hwpf_disabled () =
  let h = Hwpf.disabled () in
  Alcotest.(check (list int)) "silent" []
    (Hwpf.on_demand_access h ~pc:1 ~addr:0 ~miss:true)

(* ---------------- Hierarchy ---------------- *)

let hier ?(hw_prefetch = false) ?(mshr = 4) () =
  Hierarchy.create
    { Hierarchy.default_config with Hierarchy.hw_prefetch; mshr_capacity = mshr }

let test_hier_levels () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  let a1 = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  Alcotest.(check int) "cold = DRAM" cfg.Hierarchy.dram_latency a1.Hierarchy.latency;
  let a2 = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check int) "warm = L1" cfg.Hierarchy.l1_latency a2.Hierarchy.latency;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "one l1 hit" 1 c.Hierarchy.hits_l1;
  Alcotest.(check int) "one dram fill" 1 c.Hierarchy.dram_fills_demand

let test_hier_same_line_sharing () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  let a = Hierarchy.demand_load h ~pc:1 ~addr:7 ~cycle:500 in
  Alcotest.(check bool) "same line hits" true (a.Hierarchy.served_from = Hierarchy.L1);
  let b = Hierarchy.demand_load h ~pc:1 ~addr:8 ~cycle:1000 in
  Alcotest.(check bool) "next line misses" true (b.Hierarchy.served_from = Hierarchy.Dram)

let test_hier_timely_prefetch () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  (* after the full DRAM latency the fill has landed: demand load hits *)
  let a =
    Hierarchy.demand_load h ~pc:1 ~addr:64 ~cycle:(cfg.Hierarchy.dram_latency + 1)
  in
  Alcotest.(check int) "timely = L1 hit" cfg.Hierarchy.l1_latency a.Hierarchy.latency;
  Alcotest.(check int) "issued" 1 (Hierarchy.counters h).Hierarchy.sw_prefetch_issued

let test_hier_late_prefetch () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  let wait_cycle = 100 in
  let a = Hierarchy.demand_load h ~pc:1 ~addr:64 ~cycle:wait_cycle in
  let c = Hierarchy.counters h in
  Alcotest.(check bool) "served by the in-flight fill" true
    (a.Hierarchy.served_from = Hierarchy.Dram);
  Alcotest.(check int) "no new DRAM fill" 0 c.Hierarchy.dram_fills_demand;
  Alcotest.(check int) "partial stall"
    (cfg.Hierarchy.dram_latency - wait_cycle + cfg.Hierarchy.l1_latency)
    a.Hierarchy.latency;
  Alcotest.(check int) "LOAD_HIT_PRE.SW_PF" 1
    (Hierarchy.counters h).Hierarchy.load_hit_pre_sw_pf

let test_hier_prefetch_drop_when_full () =
  let h = hier ~mshr:2 () in
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:0;
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  Hierarchy.sw_prefetch h ~addr:128 ~cycle:0;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "two issued" 2 c.Hierarchy.sw_prefetch_issued;
  Alcotest.(check int) "one dropped" 1 c.Hierarchy.sw_prefetch_dropped

let test_hier_useless_prefetch () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:500;
  Alcotest.(check int) "useless" 1 (Hierarchy.counters h).Hierarchy.sw_prefetch_useless

let test_hier_offcore_counters () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "all data rd = 2" 2 c.Hierarchy.offcore_all_data_rd;
  Alcotest.(check int) "demand data rd = 1" 1 c.Hierarchy.offcore_demand_data_rd

let test_hier_reset_keeps_contents () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.reset_counters h;
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check bool) "still cached" true (a.Hierarchy.served_from = Hierarchy.L1);
  Alcotest.(check int) "counters zeroed" 1 (Hierarchy.counters h).Hierarchy.demand_loads

let test_hier_flush () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.flush h;
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check bool) "cold again" true (a.Hierarchy.served_from = Hierarchy.Dram)

let test_hier_hw_prefetch_covers_stream () =
  let h = hier ~hw_prefetch:true () in
  (* Stream through 64 consecutive lines; later lines should
     increasingly be covered by the next-line/stride prefetchers. *)
  for i = 0 to 63 do
    ignore (Hierarchy.demand_load h ~pc:7 ~addr:(i * 8) ~cycle:(i * 400))
  done;
  (* Fill-buffer hits on prefetched lines are not DRAM fills. *)
  let misses = (Hierarchy.counters h).Hierarchy.dram_fills_demand in
  Alcotest.(check bool)
    (Printf.sprintf "misses (%d) well below 64" misses)
    true (misses < 32)

let test_hier_bandwidth_gap () =
  let cfg = { Hierarchy.default_config with Hierarchy.dram_min_gap = 100; hw_prefetch = false } in
  let h = Hierarchy.create cfg in
  (* Two back-to-back DRAM misses at the same cycle: the second queues. *)
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  let b = Hierarchy.demand_load h ~pc:1 ~addr:512 ~cycle:0 in
  Alcotest.(check int) "first at full latency" cfg.Hierarchy.dram_latency
    a.Hierarchy.latency;
  Alcotest.(check int) "second queues behind the channel"
    (cfg.Hierarchy.dram_latency + 100) b.Hierarchy.latency

let test_hier_bandwidth_gap_zero_is_free () =
  let h = hier () in
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  let b = Hierarchy.demand_load h ~pc:1 ~addr:512 ~cycle:0 in
  Alcotest.(check int) "no queueing by default" a.Hierarchy.latency b.Hierarchy.latency

let prop_inclusive =
  QCheck.Test.make ~name:"demand loads keep returning consistent levels" ~count:20
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 2000))
    (fun addrs ->
      let h = hier () in
      List.iteri
        (fun i a -> ignore (Hierarchy.demand_load h ~pc:1 ~addr:a ~cycle:(i * 300)))
        addrs;
      (* re-touching the most recent address is always an L1 hit *)
      match List.rev addrs with
      | last :: _ ->
        (Hierarchy.demand_load h ~pc:1 ~addr:last ~cycle:1_000_000).Hierarchy.served_from
        = Hierarchy.L1
      | [] -> true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_occupancy_bounded; prop_inserted_line_present_or_evicted; prop_inclusive ]

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "insert refreshes" `Quick test_cache_insert_refreshes;
          Alcotest.test_case "sets isolated" `Quick test_cache_sets_isolated;
          Alcotest.test_case "invalidate/clear" `Quick test_cache_invalidate_clear;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
        ] );
      ( "mshr",
        [
          Alcotest.test_case "allocate/find" `Quick test_mshr_allocate_find;
          Alcotest.test_case "capacity" `Quick test_mshr_capacity;
          Alcotest.test_case "pop ready" `Quick test_mshr_pop_ready;
          Alcotest.test_case "remove" `Quick test_mshr_remove;
        ] );
      ( "hwpf",
        [
          Alcotest.test_case "stride detection" `Quick test_hwpf_stride_detection;
          Alcotest.test_case "next line" `Quick test_hwpf_next_line_on_miss;
          Alcotest.test_case "irregular silent" `Quick test_hwpf_irregular_silent;
          Alcotest.test_case "disabled" `Quick test_hwpf_disabled;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hier_levels;
          Alcotest.test_case "line sharing" `Quick test_hier_same_line_sharing;
          Alcotest.test_case "timely prefetch" `Quick test_hier_timely_prefetch;
          Alcotest.test_case "late prefetch" `Quick test_hier_late_prefetch;
          Alcotest.test_case "drop when full" `Quick test_hier_prefetch_drop_when_full;
          Alcotest.test_case "useless prefetch" `Quick test_hier_useless_prefetch;
          Alcotest.test_case "offcore counters" `Quick test_hier_offcore_counters;
          Alcotest.test_case "reset counters" `Quick test_hier_reset_keeps_contents;
          Alcotest.test_case "flush" `Quick test_hier_flush;
          Alcotest.test_case "hw covers streams" `Quick test_hier_hw_prefetch_covers_stream;
          Alcotest.test_case "bandwidth gap" `Quick test_hier_bandwidth_gap;
          Alcotest.test_case "bandwidth default free" `Quick
            test_hier_bandwidth_gap_zero_is_free;
        ] );
      ("properties", qsuite);
    ]
