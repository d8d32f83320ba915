(* Closure-compiled execution engine for the blocking core.

   Where the interpreter re-matches every instruction on every visit,
   this engine makes one pass over the {!Compile.t} plan and lowers
   each basic block into an array of OCaml closures with everything
   runtime-invariant pre-resolved: operand shapes (register slot vs
   immediate), layout PCs, branch target PCs, constant folds of
   immediate-only ALU ops. A block step is then a tight loop over its
   closure array — no tag tests, no operand matches, no list traffic —
   driven by the shared {!Exec.dispatch} step loop.

   Only the blocking core is lowered. The stall-on-use core is an
   ablation stand-in and runs on the interpreter's stepper under
   either engine: a compiled copy of it left the ablations BENCH JSON
   byte-identical and its wall time within noise (8.2 s vs 8.65 s,
   median of 4 runs), so it did not pay for its lines.

   Two lowering variants keep the engine byte-identical to the
   interpreter (same cycles, same counters, same exception payloads at
   the same points):

   - FAST: no sampler, no execution windows, no cycle deadline. Runs
     of pure ALU-class instructions (Binop/Cmp/Select — register
     writes only) are batched: the run's micro-ops execute back to
     back and the accounting (instrs/cycles/fuse) is settled once per
     run. Registers past a fuse blow are unobservable and the fuse
     payload of a 1-cycle-per-instruction run is always [fuse + 1],
     exactly what the interpreter's per-instruction charge raises.
     Loads, stores, prefetches and Work stay standalone steps so the
     cache hierarchy sees the exact same cycle stamps and no memory
     write can happen past a blown fuse.
   - GENERIC: anything with a sampler, window tick or deadline charges
     per instruction through {!Exec.blocking_charge}, the interpreter's
     own charge, so sampler cycle stamps, window boundaries and
     [Deadline_blown] payloads match byte-for-byte.

   Two specialisations were measured to pay and stay (2-core x86-64
   dev box, perfbench):

   - the FAST lowering is worth about 10% of pgo-resident
     [pipeline_s] over running everything GENERIC;
   - [alu_micro]'s per-opcode closures: collapsing them onto
     {!Exec.eval_binop}/{!Exec.eval_cmp} cost 13% of unsampled execute
     Minstr/s (15.6 -> 13.3), slower in 6 of 6 interleaved rounds. *)

module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
open Exec

type cblock = {
  cb_enter : int -> unit;  (* predecessor block id, -1 at entry *)
  cb_steps : (unit -> unit) array;
  cb_term : unit -> int;  (* next block id; -1 after Ret *)
}

let stepper_blocking ~config ~hier ~sampler ~wtick ~mem ~regs
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let scratch = Array.make (max 1 plan.Compile.cp_max_phis) 0 in
  let ret : int option ref = ref None in
  let fetch = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  let fast =
    (match wtick with None -> true | Some _ -> false)
    && (match sampler with None -> true | Some _ -> false)
    && config.max_cycles <= 0
  in
  (* The interpreter's charge; the generic variant routes every
     instruction through it. *)
  let charge = blocking_charge ~config ~sampler ~wtick st in
  (* 1-instruction-1-cycle (or n/n) accounting for effectful steps and
     terminators: inlined fuse check in the fast variant, the full
     charge otherwise. *)
  let pay =
    if fast then (fun n ->
      st.instrs <- st.instrs + n;
      st.cycle <- st.cycle + n;
      if st.instrs > fuse then raise (Fuse_blown st.instrs))
    else fun n -> charge n n
  in
  (* Pure register-write micro-op for ALU-class instructions; no
     accounting. Operand shapes and the binop/cmp selector are
     resolved here, once, instead of per visit. *)
  let alu_micro (i : Ir.instr) : unit -> unit =
    let d = i.Ir.dst in
    match i.Ir.kind with
    | Ir.Binop (op, Ir.Reg x, Ir.Reg y) -> (
      match op with
      | Ir.Add -> fun () -> regs.(d) <- regs.(x) + regs.(y)
      | Ir.Sub -> fun () -> regs.(d) <- regs.(x) - regs.(y)
      | Ir.Mul -> fun () -> regs.(d) <- regs.(x) * regs.(y)
      | Ir.Div ->
        fun () ->
          let b = regs.(y) in
          regs.(d) <- (if b = 0 then 0 else regs.(x) / b)
      | Ir.Rem ->
        fun () ->
          let b = regs.(y) in
          regs.(d) <- (if b = 0 then 0 else regs.(x) mod b)
      | Ir.And -> fun () -> regs.(d) <- regs.(x) land regs.(y)
      | Ir.Or -> fun () -> regs.(d) <- regs.(x) lor regs.(y)
      | Ir.Xor -> fun () -> regs.(d) <- regs.(x) lxor regs.(y)
      | Ir.Shl -> fun () -> regs.(d) <- regs.(x) lsl (regs.(y) land 62)
      | Ir.Shr -> fun () -> regs.(d) <- regs.(x) asr (regs.(y) land 62))
    | Ir.Binop (op, Ir.Reg x, Ir.Imm b) -> (
      match op with
      | Ir.Add -> fun () -> regs.(d) <- regs.(x) + b
      | Ir.Sub -> fun () -> regs.(d) <- regs.(x) - b
      | Ir.Mul -> fun () -> regs.(d) <- regs.(x) * b
      | Ir.Div ->
        if b = 0 then fun () -> regs.(d) <- 0
        else fun () -> regs.(d) <- regs.(x) / b
      | Ir.Rem ->
        if b = 0 then fun () -> regs.(d) <- 0
        else fun () -> regs.(d) <- regs.(x) mod b
      | Ir.And -> fun () -> regs.(d) <- regs.(x) land b
      | Ir.Or -> fun () -> regs.(d) <- regs.(x) lor b
      | Ir.Xor -> fun () -> regs.(d) <- regs.(x) lxor b
      | Ir.Shl ->
        let s = b land 62 in
        fun () -> regs.(d) <- regs.(x) lsl s
      | Ir.Shr ->
        let s = b land 62 in
        fun () -> regs.(d) <- regs.(x) asr s)
    | Ir.Binop (op, Ir.Imm a, Ir.Reg y) ->
      fun () -> regs.(d) <- eval_binop op a regs.(y)
    | Ir.Binop (op, Ir.Imm a, Ir.Imm b) ->
      let v = eval_binop op a b in
      fun () -> regs.(d) <- v
    | Ir.Cmp (op, Ir.Reg x, Ir.Reg y) -> (
      match op with
      | Ir.Eq -> fun () -> regs.(d) <- Bool.to_int (regs.(x) = regs.(y))
      | Ir.Ne -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <> regs.(y))
      | Ir.Lt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) < regs.(y))
      | Ir.Le -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <= regs.(y))
      | Ir.Gt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) > regs.(y))
      | Ir.Ge -> fun () -> regs.(d) <- Bool.to_int (regs.(x) >= regs.(y)))
    | Ir.Cmp (op, Ir.Reg x, Ir.Imm b) -> (
      match op with
      | Ir.Eq -> fun () -> regs.(d) <- Bool.to_int (regs.(x) = b)
      | Ir.Ne -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <> b)
      | Ir.Lt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) < b)
      | Ir.Le -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <= b)
      | Ir.Gt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) > b)
      | Ir.Ge -> fun () -> regs.(d) <- Bool.to_int (regs.(x) >= b))
    | Ir.Cmp (op, Ir.Imm a, Ir.Reg y) ->
      fun () -> regs.(d) <- eval_cmp op a regs.(y)
    | Ir.Cmp (op, Ir.Imm a, Ir.Imm b) ->
      let v = eval_cmp op a b in
      fun () -> regs.(d) <- v
    | Ir.Select (Ir.Reg c, a, b) ->
      fun () -> regs.(d) <- (if regs.(c) <> 0 then fetch a else fetch b)
    | Ir.Select (Ir.Imm c, a, b) -> (
      (* Constant condition: the arm is chosen at compile time; the
         other arm is never evaluated, as in the interpreter. *)
      match (if c <> 0 then a else b) with
      | Ir.Reg s -> fun () -> regs.(d) <- regs.(s)
      | Ir.Imm v -> fun () -> regs.(d) <- v)
    | Ir.Load _ | Ir.Store _ | Ir.Prefetch _ | Ir.Work _ ->
      invalid_arg "Compiled.alu_micro: not an ALU instruction"
  in
  let load_step ~pc d (a : Ir.operand) : unit -> unit =
    match (a, sampler) with
    | Ir.Reg x, None ->
      if fast then (fun () ->
        let addr = regs.(x) in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        st.instrs <- st.instrs + 1;
        st.cycle <- st.cycle + 1 + max 0 (access.Hierarchy.latency - l1_lat);
        if st.instrs > fuse then raise (Fuse_blown st.instrs))
      else fun () ->
        let addr = regs.(x) in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        charge 1 (1 + max 0 (access.Hierarchy.latency - l1_lat))
    | Ir.Reg x, Some s ->
      fun () ->
        let addr = regs.(x) in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        if access.Hierarchy.served_from = Hierarchy.Dram then
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle;
        charge 1 (1 + max 0 (access.Hierarchy.latency - l1_lat))
    | Ir.Imm addr, None ->
      fun () ->
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        charge 1 (1 + max 0 (access.Hierarchy.latency - l1_lat))
    | Ir.Imm addr, Some s ->
      fun () ->
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        if access.Hierarchy.served_from = Hierarchy.Dram then
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle;
        charge 1 (1 + max 0 (access.Hierarchy.latency - l1_lat))
  in
  let store_step (a : Ir.operand) (v : Ir.operand) : unit -> unit =
    match (a, v) with
    | Ir.Reg x, Ir.Reg y ->
      fun () ->
        Memory.set mem regs.(x) regs.(y);
        pay 1
    | _ ->
      fun () ->
        Memory.set mem (fetch a) (fetch v);
        pay 1
  in
  let prefetch_step (a : Ir.operand) : unit -> unit =
    match a with
    | Ir.Reg x ->
      fun () ->
        let addr = regs.(x) in
        if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
        st.prefetches <- st.prefetches + 1;
        pay 1
    | Ir.Imm addr ->
      if addr >= 0 then fun () ->
        Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
        st.prefetches <- st.prefetches + 1;
        pay 1
      else fun () ->
        st.prefetches <- st.prefetches + 1;
        pay 1
  in
  let work_step (w : Ir.operand) : unit -> unit =
    match w with
    | Ir.Reg x -> fun () -> pay (max 0 regs.(x))
    | Ir.Imm i ->
      let n = max 0 i in
      fun () -> pay n
  in
  (* Terminators return the next block id (-1 = done). Branch target
     PCs are pre-resolved so the sampler hook is a straight call. *)
  let term_closure cur (t : Ir.terminator) : unit -> int =
    let term_pc = Layout.pc_of_term cur in
    let goto target =
      let tpc = Layout.pc_of_instr target 0 in
      match sampler with
      | Some s ->
        fun () ->
          Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
            ~cycle:st.cycle;
          charge 1 1;
          target
      | None ->
        fun () ->
          pay 1;
          target
    in
    match t with
    | Ir.Jmp l -> goto l
    | Ir.Br (Ir.Imm c, t1, e) -> goto (if c <> 0 then t1 else e)
    | Ir.Br (Ir.Reg x, t1, e) -> (
      match sampler with
      | Some s ->
        let tpc = Layout.pc_of_instr t1 0 in
        let epc = Layout.pc_of_instr e 0 in
        fun () ->
          if regs.(x) <> 0 then begin
            Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
              ~cycle:st.cycle;
            charge 1 1;
            t1
          end
          else begin
            Sampler.on_branch s ~branch_pc:term_pc ~target_pc:epc
              ~cycle:st.cycle;
            charge 1 1;
            e
          end
      | None ->
        fun () ->
          if regs.(x) <> 0 then begin
            pay 1;
            t1
          end
          else begin
            pay 1;
            e
          end)
    | Ir.Ret v -> (
      (* The interpreter charges before evaluating the return value, so
         a fuse blown on the Ret never reads a register. *)
      match v with
      | None ->
        fun () ->
          pay 1;
          ret := None;
          -1
      | Some (Ir.Reg x) ->
        fun () ->
          pay 1;
          ret := Some regs.(x);
          -1
      | Some (Ir.Imm i) ->
        let r = Some i in
        fun () ->
          pay 1;
          ret := r;
          -1)
  in
  let enter_closure cur (pm : Compile.phi_moves) : int -> unit =
    let dsts = pm.Compile.pm_dsts in
    let nphi = Array.length dsts in
    if nphi = 0 then fun _ -> ()
    else fun prev ->
      let row = Compile.phi_row pm prev in
      if row < 0 then Compile.missing_phi_edge f ~cur ~prev;
      let ops = pm.Compile.pm_rows.(row) in
      for k = 0 to nphi - 1 do
        scratch.(k) <- fetch ops.(k)
      done;
      for k = 0 to nphi - 1 do
        regs.(dsts.(k)) <- scratch.(k)
      done
  in
  let compile_block cur (bp : Compile.block_plan) : cblock =
    let instrs = bp.Compile.bp_instrs in
    let n = Array.length instrs in
    let steps = ref [] in
    (* reversed *)
    if fast then begin
      (* Batch runs of pure ALU micro-ops behind a single settlement of
         instrs/cycles/fuse. See the header comment for why this stays
         byte-identical. *)
      let pending = ref [] in
      let npend = ref 0 in
      let flush () =
        (match (!pending, !npend) with
        | [], _ -> ()
        | [ one ], _ ->
          steps :=
            (fun () ->
              one ();
              st.instrs <- st.instrs + 1;
              st.cycle <- st.cycle + 1;
              if st.instrs > fuse then raise (Fuse_blown st.instrs))
            :: !steps
        | many, k ->
          let ops = Array.of_list (List.rev many) in
          steps :=
            (fun () ->
              for j = 0 to k - 1 do
                (Array.unsafe_get ops j) ()
              done;
              st.instrs <- st.instrs + k;
              st.cycle <- st.cycle + k;
              if st.instrs > fuse then raise (Fuse_blown (fuse + 1)))
            :: !steps);
        pending := [];
        npend := 0
      in
      for ii = 0 to n - 1 do
        let i = instrs.(ii) in
        match i.Ir.kind with
        | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ ->
          pending := alu_micro i :: !pending;
          incr npend
        | Ir.Load a ->
          flush ();
          steps :=
            load_step ~pc:(Layout.pc_of_instr cur ii) i.Ir.dst a :: !steps
        | Ir.Store (a, v) ->
          flush ();
          steps := store_step a v :: !steps
        | Ir.Prefetch a ->
          flush ();
          steps := prefetch_step a :: !steps
        | Ir.Work w ->
          flush ();
          steps := work_step w :: !steps
      done;
      flush ()
    end
    else
      for ii = 0 to n - 1 do
        let i = instrs.(ii) in
        let step =
          match i.Ir.kind with
          | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ ->
            let micro = alu_micro i in
            fun () ->
              micro ();
              charge 1 1
          | Ir.Load a -> load_step ~pc:(Layout.pc_of_instr cur ii) i.Ir.dst a
          | Ir.Store (a, v) -> store_step a v
          | Ir.Prefetch a -> prefetch_step a
          | Ir.Work w -> work_step w
        in
        steps := step :: !steps
      done;
    {
      cb_enter = enter_closure cur bp.Compile.bp_phis;
      cb_steps = Array.of_list (List.rev !steps);
      cb_term = term_closure cur bp.Compile.bp_term;
    }
  in
  let blocks = Array.mapi compile_block plan.Compile.cp_blocks in
  let run_block cur prev =
    let cb = Array.unsafe_get blocks cur in
    cb.cb_enter prev;
    let steps = cb.cb_steps in
    for j = 0 to Array.length steps - 1 do
      (Array.unsafe_get steps j) ()
    done;
    cb.cb_term ()
  in
  (st, ret, dispatch ~entry:plan.Compile.cp_entry run_block)
