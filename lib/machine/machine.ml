module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
module Metrics = Aptget_obs.Metrics
module Clock = Aptget_util.Clock

type core_model = Exec.core_model = Blocking | Stall_on_use of { window : int }

type config = Exec.config = {
  hierarchy : Hierarchy.config;
  max_instructions : int;
  max_cycles : int;
  core : core_model;
}

let default_config = Exec.default_config
let stall_on_use_config = Exec.stall_on_use_config

type outcome = {
  cycles : int;
  instructions : int;
  dyn_loads : int;
  dyn_prefetches : int;
  ret : int option;
  counters : Hierarchy.counters;
}

let ipc o =
  if o.cycles = 0 then 0. else float_of_int o.instructions /. float_of_int o.cycles

let mpki o =
  if o.instructions = 0 then 0.
  else
    float_of_int o.counters.Hierarchy.offcore_demand_data_rd
    *. 1000.
    /. float_of_int o.instructions

let memory_stall_fraction o =
  if o.cycles = 0 then 0.
  else
    float_of_int
      (o.counters.Hierarchy.stall_cycles_llc + o.counters.Hierarchy.stall_cycles_dram)
    /. float_of_int o.cycles

(* Distance-error evidence, usable on whole-run counters or window
   deltas. Zero issued prefetches reads as zero error: an unhinted
   program is never "late". *)
let late_prefetch_ratio (c : Hierarchy.counters) =
  if c.Hierarchy.sw_prefetch_issued = 0 then 0.
  else
    float_of_int c.Hierarchy.load_hit_pre_sw_pf
    /. float_of_int c.Hierarchy.sw_prefetch_issued

let early_evict_ratio (c : Hierarchy.counters) =
  if c.Hierarchy.sw_prefetch_issued = 0 then 0.
  else
    float_of_int c.Hierarchy.sw_prefetch_early_evict
    /. float_of_int c.Hierarchy.sw_prefetch_issued

let useless_prefetch_ratio (c : Hierarchy.counters) =
  let attempts =
    c.Hierarchy.sw_prefetch_issued + c.Hierarchy.sw_prefetch_useless
    + c.Hierarchy.sw_prefetch_dropped
  in
  if attempts = 0 then 0.
  else float_of_int c.Hierarchy.sw_prefetch_useless /. float_of_int attempts

exception Fuse_blown = Exec.Fuse_blown
exception Deadline_blown = Exec.Deadline_blown

let eval_binop = Exec.eval_binop
let eval_cmp = Exec.eval_cmp
let check_deadline = Exec.check_deadline

open struct
  type state = Exec.state = {
    mutable cycle : int;
    mutable instrs : int;
    mutable loads : int;
    mutable prefetches : int;
  }
end

type window_report = Exec.window_report = {
  w_index : int;
  w_start_cycle : int;
  w_end_cycle : int;
  w_instructions : int;
  w_counters : Hierarchy.counters;
}

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

(* [superblocks] is ignored: it survives only so existing callers
   that build the constructor keep compiling. *)
type engine = Interp | Compiled of { superblocks : bool }

let compiled = Compiled { superblocks = true }

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Some Interp
  | "compiled" -> Some compiled
  | _ -> None

(* Unknown values are an error, not a silent fallback: a misspelt
   [APTGET_ENGINE=interp] must not quietly run the compiled engine
   against itself in an oracle diff. *)
let engine_of_env () =
  match Sys.getenv_opt "APTGET_ENGINE" with
  | None -> compiled
  | Some s -> (
    match engine_of_string s with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "bad APTGET_ENGINE value: %s (known: compiled, interp)"
           s))

(* Atomic so a CLI override made before worker domains spawn is seen by
   all of them. *)
let default_engine_a = Atomic.make None
let set_default_engine e = Atomic.set default_engine_a (Some e)

let default_engine () =
  match Atomic.get default_engine_a with Some e -> e | None -> engine_of_env ()

(* ------------------------------------------------------------------ *)
(* Simulation throughput                                               *)
(* ------------------------------------------------------------------ *)

(* Process-wide accumulators, shared across worker domains. Wall time
   sums the per-execute elapsed time, so under [--jobs N] overlapping
   executes count their full durations (aggregate simulation
   throughput, not wall-clock cycles/sec of the whole process). *)
let total_cycles_a = Atomic.make 0
let total_exec_ns_a = Atomic.make 0

let total_simulated_cycles () = Atomic.get total_cycles_a
let total_execute_seconds () = float_of_int (Atomic.get total_exec_ns_a) *. 1e-9

let note_run ~cycles ~wall_s =
  ignore (Atomic.fetch_and_add total_cycles_a cycles);
  ignore (Atomic.fetch_and_add total_exec_ns_a (int_of_float (wall_s *. 1e9)));
  if Metrics.enabled () then begin
    let ns = Atomic.get total_exec_ns_a in
    if ns > 0 then
      Metrics.set_gauge "sim.cycles_per_sec"
        (float_of_int (Atomic.get total_cycles_a) /. (float_of_int ns *. 1e-9))
  end

(* ------------------------------------------------------------------ *)
(* Blocking core, interpreted: a demand load stalls until its data is  *)
(* available. Kept as the differential oracle for the compiled engine. *)
(* ------------------------------------------------------------------ *)

(* Each executor is built as a *stepper*: all setup runs eagerly, then
   [step ()] performs exactly one block dispatch (phi moves, the
   block's instructions, the terminator) through {!Exec.dispatch} and
   returns false once [Ret] has executed. Solo execution drives the
   stepper to completion in a tight loop; the co-run scheduler
   ({!Corun}) interleaves steppers from several streams over one shared
   LLC. *)

let stepper_blocking ~config ~hier ~sampler ~wtick ~mem ~regs
    ~(plan : Compile.t) (f : Ir.func) =
  let eval = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let ret = ref None in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let scratch = Array.make (max 1 plan.Compile.cp_max_phis) 0 in
  let charge = Exec.blocking_charge ~config ~sampler ~wtick st in
  (* Hoisted out of [run_block]: allocating this closure per block
     visit showed up in dispatch-heavy kernels. *)
  let record_branch cur target =
    (match sampler with
    | Some s ->
      Sampler.on_branch s ~branch_pc:(Layout.pc_of_term cur)
        ~target_pc:(Layout.pc_of_instr target 0) ~cycle:st.cycle
    | None -> ());
    charge 1 1
  in
  let run_block cur prev =
    let blk = f.Ir.blocks.(cur) in
    let pm = plan.Compile.cp_blocks.(cur).Compile.bp_phis in
    let nphi = Array.length pm.Compile.pm_dsts in
    if nphi > 0 then begin
      let row = Compile.phi_row pm prev in
      if row < 0 then Compile.missing_phi_edge f ~cur ~prev;
      let ops = pm.Compile.pm_rows.(row) in
      for k = 0 to nphi - 1 do
        scratch.(k) <- eval ops.(k)
      done;
      for k = 0 to nphi - 1 do
        regs.(pm.Compile.pm_dsts.(k)) <- scratch.(k)
      done
    end;
    let n = Array.length blk.Ir.instrs in
    for ii = 0 to n - 1 do
      let i = blk.Ir.instrs.(ii) in
      match i.Ir.kind with
      | Ir.Binop (op, a, b) ->
        regs.(i.Ir.dst) <- eval_binop op (eval a) (eval b);
        charge 1 1
      | Ir.Cmp (op, a, b) ->
        regs.(i.Ir.dst) <- eval_cmp op (eval a) (eval b);
        charge 1 1
      | Ir.Select (c, a, b) ->
        regs.(i.Ir.dst) <- (if eval c <> 0 then eval a else eval b);
        charge 1 1
      | Ir.Load a ->
        let addr = eval a in
        let pc = Layout.pc_of_instr cur ii in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(i.Ir.dst) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        (match sampler with
        | Some s when access.Hierarchy.served_from = Hierarchy.Dram ->
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle
        | _ -> ());
        (* L1 hits are pipelined: 1 cycle. Anything deeper stalls the
           in-order core for the extra latency. *)
        charge 1 (1 + max 0 (access.Hierarchy.latency - l1_lat))
      | Ir.Store (a, v) ->
        Memory.set mem (eval a) (eval v);
        charge 1 1
      | Ir.Prefetch a ->
        let addr = eval a in
        if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
        st.prefetches <- st.prefetches + 1;
        charge 1 1
      | Ir.Work n ->
        let n = max 0 (eval n) in
        charge n n
    done;
    match blk.Ir.term with
    | Ir.Jmp l ->
      record_branch cur l;
      l
    | Ir.Br (c, t, e) ->
      let target = if eval c <> 0 then t else e in
      record_branch cur target;
      target
    | Ir.Ret v ->
      charge 1 1;
      ret := Option.map eval v;
      -1
  in
  (st, ret, Exec.dispatch ~entry:f.Ir.entry run_block)

(* ------------------------------------------------------------------ *)
(* Stall-on-use core, interpreted: loads complete in the background;   *)
(* the core stalls only when a not-yet-ready register is consumed,     *)
(* bounded by a reorder window.                                        *)
(* ------------------------------------------------------------------ *)

let stepper_stall_on_use ~config ~hier ~sampler ~wtick ~mem ~regs ~window
    ~(plan : Compile.t) (f : Ir.func) =
  let eval = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  let ready = Array.make (Array.length regs) 0 in
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let ret = ref None in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let nscratch = max 1 plan.Compile.cp_max_phis in
  let scratch = Array.make nscratch 0 in
  let scratch_ready = Array.make nscratch 0 in
  (* Ring of completion times of the last [window] instructions. *)
  let rob = Array.make (max 1 window) 0 in
  let rob_idx = ref 0 in
  (* Sampler test hoisted out of the per-instruction path, as in the
     blocking core; the windowed variant is separate for the same
     reason. *)
  let issue =
    match (wtick, sampler) with
    | None, None ->
      fun ?(n = 1) () ->
        st.instrs <- st.instrs + n;
        st.cycle <- max (st.cycle + n) rob.(!rob_idx);
        if st.instrs > config.max_instructions then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle
    | None, Some s ->
      fun ?(n = 1) () ->
        (* In-order issue at one instruction per cycle, gated by the
           oldest in-flight instruction leaving the window. *)
        st.instrs <- st.instrs + n;
        st.cycle <- max (st.cycle + n) rob.(!rob_idx);
        if st.instrs > config.max_instructions then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle;
        Sampler.on_cycle s ~cycle:st.cycle
    | Some tick, _ ->
      fun ?(n = 1) () ->
        st.instrs <- st.instrs + n;
        st.cycle <- max (st.cycle + n) rob.(!rob_idx);
        if st.instrs > config.max_instructions then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle;
        (match sampler with
        | Some s -> Sampler.on_cycle s ~cycle:st.cycle
        | None -> ());
        tick st
  in
  let retire completion =
    rob.(!rob_idx) <- completion;
    rob_idx := (!rob_idx + 1) mod Array.length rob
  in
  let op_ready = function Ir.Reg r -> ready.(r) | Ir.Imm _ -> 0 in
  let ops_ready ops = List.fold_left (fun m o -> max m (op_ready o)) 0 ops in
  let wait_for ops = st.cycle <- max st.cycle (ops_ready ops) in
  (* Hoisted out of [run_block] — same allocation fix as the blocking
     core's [record_branch]. *)
  let record_branch cur ~cond target =
    issue ();
    (* No speculation: the branch resolves before the next block. *)
    wait_for cond;
    retire (st.cycle + 1);
    match sampler with
    | Some s ->
      Sampler.on_branch s ~branch_pc:(Layout.pc_of_term cur)
        ~target_pc:(Layout.pc_of_instr target 0) ~cycle:st.cycle
    | None -> ()
  in
  let run_block cur prev =
    let blk = f.Ir.blocks.(cur) in
    (* Phi values inherit the readiness of the taken edge's source, so
       a loop-carried dependence (e.g. a pointer chase) serialises
       correctly. Parallel evaluation as in the blocking core. *)
    let pm = plan.Compile.cp_blocks.(cur).Compile.bp_phis in
    let nphi = Array.length pm.Compile.pm_dsts in
    if nphi > 0 then begin
      let row = Compile.phi_row pm prev in
      if row < 0 then Compile.missing_phi_edge f ~cur ~prev;
      let ops = pm.Compile.pm_rows.(row) in
      for k = 0 to nphi - 1 do
        let op = ops.(k) in
        scratch.(k) <- eval op;
        scratch_ready.(k) <- op_ready op
      done;
      for k = 0 to nphi - 1 do
        let r = pm.Compile.pm_dsts.(k) in
        regs.(r) <- scratch.(k);
        ready.(r) <- scratch_ready.(k)
      done
    end;
    let n = Array.length blk.Ir.instrs in
    for ii = 0 to n - 1 do
      let i = blk.Ir.instrs.(ii) in
      match i.Ir.kind with
      | Ir.Binop (op, a, b) ->
        issue ();
        let start = max st.cycle (ops_ready [ a; b ]) in
        regs.(i.Ir.dst) <- eval_binop op (eval a) (eval b);
        ready.(i.Ir.dst) <- start + 1;
        retire (start + 1)
      | Ir.Cmp (op, a, b) ->
        issue ();
        let start = max st.cycle (ops_ready [ a; b ]) in
        regs.(i.Ir.dst) <- eval_cmp op (eval a) (eval b);
        ready.(i.Ir.dst) <- start + 1;
        retire (start + 1)
      | Ir.Select (c, a, b) ->
        issue ();
        let start = max st.cycle (ops_ready [ c; a; b ]) in
        regs.(i.Ir.dst) <- (if eval c <> 0 then eval a else eval b);
        ready.(i.Ir.dst) <- start + 1;
        retire (start + 1)
      | Ir.Load a ->
        issue ();
        let start = max st.cycle (op_ready a) in
        let addr = eval a in
        let pc = Layout.pc_of_instr cur ii in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:start in
        regs.(i.Ir.dst) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        (match sampler with
        | Some s when access.Hierarchy.served_from = Hierarchy.Dram ->
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:start
        | _ -> ());
        let completion = start + 1 + max 0 (access.Hierarchy.latency - l1_lat) in
        ready.(i.Ir.dst) <- completion;
        retire completion
      | Ir.Store (a, v) ->
        issue ();
        (* Stores drain through the store buffer; the written value's
           readiness is irrelevant to timing. *)
        Memory.set mem (eval a) (eval v);
        retire (st.cycle + 1)
      | Ir.Prefetch a ->
        issue ();
        let start = max st.cycle (op_ready a) in
        let addr = eval a in
        if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:start;
        st.prefetches <- st.prefetches + 1;
        retire (start + 1)
      | Ir.Work n ->
        let n = max 0 (eval n) in
        if n > 0 then issue ~n ();
        retire st.cycle
    done;
    match blk.Ir.term with
    | Ir.Jmp l ->
      record_branch cur ~cond:[] l;
      l
    | Ir.Br (c, t, e) ->
      let target = if eval c <> 0 then t else e in
      record_branch cur ~cond:[ c ] target;
      target
    | Ir.Ret v ->
      issue ();
      (match v with Some o -> wait_for [ o ] | None -> ());
      ret := Option.map eval v;
      -1
  in
  (st, ret, Exec.dispatch ~entry:f.Ir.entry run_block)

(* ------------------------------------------------------------------ *)
(* Steppers and the driver loop                                        *)
(* ------------------------------------------------------------------ *)

type stepper = {
  sp_step : unit -> bool;
  sp_cycle : unit -> int;
  sp_finished : unit -> bool;
  sp_finish : unit -> outcome;
}

let make_stepper ?(config = default_config) ?engine ?hierarchy ?sampler
    ?window_cycles ?on_window ?(args = []) ~mem (f : Ir.func) =
  let engine = match engine with Some e -> e | None -> default_engine () in
  let hier =
    match hierarchy with Some h -> h | None -> Hierarchy.create config.hierarchy
  in
  (* Bound the hardware prefetcher to this run's backing region: the
     next-line and stride paths must not emit targets past the end of
     the allocation (the prefetch-bounds bug). *)
  Hierarchy.set_prefetch_limit hier ~words:(Memory.size_words mem);
  let windowing =
    match (window_cycles, on_window) with
    | Some w, Some fn when w > 0 ->
      Some (Exec.make_windowing ~hier ~window_cycles:w ~on_window:fn)
    | _ -> None
  in
  let wtick = Option.map fst windowing in
  let regs = Array.make (max 1 f.Ir.next_reg) 0 in
  Exec.bind_params f regs args;
  let plan = Compile.plan f in
  (* The compiled engine lowers only the blocking core; stall-on-use
     runs on the interpreter under either engine. *)
  let st, ret, step =
    match (engine, config.core) with
    | Interp, Blocking ->
      stepper_blocking ~config ~hier ~sampler ~wtick ~mem ~regs ~plan f
    | Compiled _, Blocking ->
      Compiled.stepper_blocking ~config ~hier ~sampler ~wtick ~mem ~regs ~plan f
    | _, Stall_on_use { window } ->
      stepper_stall_on_use ~config ~hier ~sampler ~wtick ~mem ~regs ~window
        ~plan f
  in
  let finished = ref false in
  let outcome = ref None in
  let sp_step () =
    let more = step () in
    if not more then finished := true;
    more
  in
  let sp_finish () =
    match !outcome with
    | Some o -> o
    | None ->
      (match windowing with Some (_, finish) -> finish st | None -> ());
      let o =
        {
          cycles = st.Exec.cycle;
          instructions = st.Exec.instrs;
          dyn_loads = st.Exec.loads;
          dyn_prefetches = st.Exec.prefetches;
          ret = !ret;
          counters = Hierarchy.counters hier;
        }
      in
      outcome := Some o;
      o
  in
  {
    sp_step;
    sp_cycle = (fun () -> st.Exec.cycle);
    sp_finished = (fun () -> !finished);
    sp_finish;
  }

let execute ?config ?engine ?hierarchy ?sampler ?window_cycles ?on_window
    ?args ~mem (f : Ir.func) =
  let t0 = Clock.now () in
  let sp =
    make_stepper ?config ?engine ?hierarchy ?sampler ?window_cycles ?on_window
      ?args ~mem f
  in
  while sp.sp_step () do
    ()
  done;
  let o = sp.sp_finish () in
  let wall = Clock.now () -. t0 in
  note_run ~cycles:o.cycles ~wall_s:wall;
  o
