(* Shared substrate of the two simulator engines (the interpreter in
   Machine and the closure-compiled engine in Compiled): configuration,
   run state, value semantics, fuses and execution windows. Both
   engines must charge through the definitions here so their cycle
   accounting stays byte-identical. *)

module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler

type core_model = Blocking | Stall_on_use of { window : int }

type config = {
  hierarchy : Hierarchy.config;
  max_instructions : int;
  max_cycles : int;
  core : core_model;
}

let default_config =
  {
    hierarchy = Hierarchy.default_config;
    max_instructions = 2_000_000_000;
    max_cycles = 0;
    core = Blocking;
  }

let stall_on_use_config ?(window = 64) () =
  { default_config with core = Stall_on_use { window } }

exception Fuse_blown of int
exception Deadline_blown of { cycles : int; limit : int }

let check_deadline config cycle =
  if config.max_cycles > 0 && cycle > config.max_cycles then
    raise (Deadline_blown { cycles = cycle; limit = config.max_cycles })

(* Shared value semantics. *)
let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then 0 else a / b
  | Ir.Rem -> if b = 0 then 0 else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl (b land 62)
  | Ir.Shr -> a asr (b land 62)

let eval_cmp op a b =
  let v =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Lt -> a < b
    | Ir.Le -> a <= b
    | Ir.Gt -> a > b
    | Ir.Ge -> a >= b
  in
  if v then 1 else 0

type state = {
  mutable cycle : int;
  mutable instrs : int;
  mutable loads : int;
  mutable prefetches : int;
}

(* The blocking core's charge: [charge n_instr n_cycles] retires
   [n_instr] instructions over [n_cycles] cycles, then checks the fuse
   and the deadline. The sampler and window tests are hoisted out of
   the per-instruction path: measurement runs (no sampler) pay nothing
   for profiling, profiled runs tick the sampler once per charge at the
   post-advance cycle, and windowed runs take the third shape so the
   common two stay untouched. *)
let blocking_charge ~config ~sampler ~wtick st =
  match (wtick, sampler) with
  | None, None ->
    fun n_instr n_cycles ->
      st.instrs <- st.instrs + n_instr;
      st.cycle <- st.cycle + n_cycles;
      if st.instrs > config.max_instructions then raise (Fuse_blown st.instrs);
      check_deadline config st.cycle
  | None, Some s ->
    fun n_instr n_cycles ->
      st.instrs <- st.instrs + n_instr;
      st.cycle <- st.cycle + n_cycles;
      if st.instrs > config.max_instructions then raise (Fuse_blown st.instrs);
      check_deadline config st.cycle;
      Sampler.on_cycle s ~cycle:st.cycle
  | Some tick, _ ->
    fun n_instr n_cycles ->
      st.instrs <- st.instrs + n_instr;
      st.cycle <- st.cycle + n_cycles;
      if st.instrs > config.max_instructions then raise (Fuse_blown st.instrs);
      check_deadline config st.cycle;
      (match sampler with
      | Some s -> Sampler.on_cycle s ~cycle:st.cycle
      | None -> ());
      tick st

(* One step = one block dispatch: [run_block cur prev] runs block
   [cur] (entered from [prev], -1 at entry) and returns the next block
   id, or -1 after [Ret]. Every stepper advances through this loop, so
   all engines and cores move at the same granularity and the co-run
   scheduler interleaves streams per block. *)
let dispatch ~entry run_block =
  let cur = ref entry in
  let prev = ref (-1) in
  fun () ->
    !cur >= 0
    && begin
         let next = run_block !cur !prev in
         prev := !cur;
         cur := next;
         next >= 0
       end

(* ------------------------------------------------------------------ *)
(* Execution windows: periodic counter-delta snapshots for online      *)
(* drift detection. The hook fires from the charge/issue path, so the  *)
(* window-less variants stay byte-identical to the pre-window          *)
(* engines.                                                            *)
(* ------------------------------------------------------------------ *)

type window_report = {
  w_index : int;
  w_start_cycle : int;
  w_end_cycle : int;
  w_instructions : int;
  w_counters : Hierarchy.counters;
}

(* Returns [(tick, finish)]: [tick st] fires [on_window] whenever the
   cycle clock crosses the next window boundary; [finish st] flushes
   the trailing partial window (if any activity happened since the last
   boundary). *)
let make_windowing ~hier ~window_cycles ~on_window =
  let next = ref window_cycles in
  let idx = ref 0 in
  let prev_counters = ref (Hierarchy.counters hier) in
  let prev_cycle = ref 0 in
  let prev_instrs = ref 0 in
  let emit (st : state) =
    let c = Hierarchy.counters hier in
    on_window
      {
        w_index = !idx;
        w_start_cycle = !prev_cycle;
        w_end_cycle = st.cycle;
        w_instructions = st.instrs - !prev_instrs;
        w_counters = Hierarchy.sub_counters c !prev_counters;
      };
    incr idx;
    prev_counters := c;
    prev_cycle := st.cycle;
    prev_instrs := st.instrs
  in
  let tick (st : state) =
    if st.cycle >= !next then begin
      emit st;
      next := st.cycle + window_cycles
    end
  in
  let finish (st : state) = if st.cycle > !prev_cycle then emit st in
  (tick, finish)

let bind_params (f : Ir.func) regs args =
  (* Walk params and args in lockstep; extra args are ignored, missing
     ones leave the register at its default, as before. *)
  let rec go ps vs =
    match (ps, vs) with
    | p :: ps', v :: vs' ->
      regs.(p) <- v;
      go ps' vs'
    | _, _ -> ()
  in
  go f.Ir.params args
