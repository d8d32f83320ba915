(* Differential testing of the execution engines.

   The compiled engine must be byte-identical to the reference
   interpreter: same cycles, instrs, loads, prefetches and return
   value; same sampler LBR/PEBS tallies; and the same exception
   payloads ([Fuse_blown], [Deadline_blown], watchdog timeouts) raised
   at the same instruction/cycle. *)

module Machine = Aptget_machine.Machine
module Memory = Aptget_mem.Memory
module Sampler = Aptget_pmu.Sampler
module Lbr = Aptget_pmu.Lbr
module Watchdog = Aptget_core.Watchdog

(* Every engine, under the name the CLI and APTGET_ENGINE take. *)
let engines =
  List.map
    (fun name -> (name, Option.get (Machine.engine_of_string name)))
    [ "interp"; "compiled" ]

(* ---------------- program generators ---------------- *)

(* A branchy gather loop: every iteration loads from a seed-scrambled
   index, then takes a data-dependent branch whose arms merge through a
   phi. Exercises phi moves, ALU batching, loads, prefetches and
   stores. *)
let branchy_kernel ~n ~stride ~with_prefetch ~with_store () =
  let b = Builder.create ~name:"diff" ~nparams:2 in
  let base, seed =
    match Builder.params b with [ x; y ] -> (x, y) | _ -> assert false
  in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op (Ir.Imm n))
      ~init:[ Ir.Imm 0; Ir.Imm 1 ]
      (fun b i accs ->
        let acc, salt =
          match accs with [ a; s ] -> (a, s) | _ -> assert false
        in
        let x = Builder.mul b i (Ir.Imm stride) in
        let x = Builder.add b x seed in
        let idx = Builder.binop b Ir.And x (Ir.Imm 1023) in
        let addr = Builder.add b base idx in
        if with_prefetch then
          Builder.prefetch b (Builder.add b addr (Ir.Imm 64));
        let v = Builder.load b addr in
        let acc' = Builder.add b acc v in
        if with_store then
          Builder.store b ~addr ~value:(Builder.binop b Ir.Xor acc' i);
        (* Data-dependent diamond merged by the loop phis. *)
        let c = Builder.binop b Ir.And v (Ir.Imm 1) in
        let odd = Builder.new_block b in
        let even = Builder.new_block b in
        let join = Builder.new_block b in
        Builder.br b c odd even;
        Builder.switch_to b odd;
        let s_odd = Builder.add b salt (Ir.Imm 3) in
        Builder.jmp b join;
        Builder.switch_to b even;
        let s_even = Builder.binop b Ir.Xor salt (Ir.Imm 5) in
        Builder.jmp b join;
        Builder.switch_to b join;
        let s' = Builder.phi b [ (odd, s_odd); (even, s_even) ] in
        [ Builder.add b acc' s'; s' ])
  in
  Builder.ret b (Some (List.hd final));
  let f = Builder.finish b in
  Verify.check_exn f;
  f

let fresh_mem () =
  let mem = Memory.create () in
  let r = Memory.alloc mem ~name:"data" ~words:2048 in
  let rng = Aptget_util.Rng.create 97 in
  Memory.blit_array mem r
    (Array.init 2048 (fun _ -> Aptget_util.Rng.int rng 1000));
  (mem, r.Memory.base)

(* Everything an engine run can observe, exceptions included. *)
type run = {
  outcome : (int * int * int * int * int option) option;
  failure : string option;
  lbr : (int * (int * int * int) list) list;
  delinquent : (int * int) list;
  misses : int;
  memory : int array;  (* the data region after the run *)
}

(* [args] follow the data region's base address. *)
let run_with ~engine ?config ?(sample = false) ?(args = [ 7 ]) f =
  let mem, base = fresh_mem () in
  let sampler =
    if sample then
      Some (Sampler.create ~lbr_period:500 ~pebs_period:2 ())
    else None
  in
  let outcome, failure =
    match
      Machine.execute ?config ~engine ?sampler ~args:(base :: args) ~mem f
    with
    | o ->
      ( Some
          ( o.Machine.cycles,
            o.Machine.instructions,
            o.Machine.dyn_loads,
            o.Machine.dyn_prefetches,
            o.Machine.ret ),
        None )
    | exception Machine.Fuse_blown n ->
      (None, Some (Printf.sprintf "Fuse_blown %d" n))
    | exception Machine.Deadline_blown { cycles; limit } ->
      (None, Some (Printf.sprintf "Deadline_blown %d/%d" cycles limit))
  in
  let lbr, delinquent, misses =
    match sampler with
    | None -> ([], [], 0)
    | Some s ->
      ( List.map
          (fun (smp : Sampler.lbr_sample) ->
            ( smp.Sampler.at_cycle,
              Array.to_list smp.Sampler.entries
              |> List.map (fun (e : Lbr.entry) ->
                     (e.Lbr.branch_pc, e.Lbr.target_pc, e.Lbr.cycle)) ))
          (Sampler.lbr_samples s),
        Sampler.delinquent_loads s,
        Sampler.miss_samples s )
  in
  let memory = Array.init 2048 (fun i -> Memory.get mem (base + i)) in
  { outcome; failure; lbr; delinquent; misses; memory }

let check_identical what runs =
  match runs with
  | [] | [ _ ] -> ()
  | (e0, r0) :: rest ->
    List.iter
      (fun (e, r) ->
        let ctx = Printf.sprintf "%s: %s vs %s" what e0 e in
        Alcotest.(check bool) (ctx ^ " outcome") true (r0.outcome = r.outcome);
        Alcotest.(check (option string)) (ctx ^ " failure") r0.failure r.failure;
        Alcotest.(check bool) (ctx ^ " lbr") true (r0.lbr = r.lbr);
        Alcotest.(check bool)
          (ctx ^ " delinquent") true
          (r0.delinquent = r.delinquent);
        Alcotest.(check int) (ctx ^ " misses") r0.misses r.misses;
        Alcotest.(check bool) (ctx ^ " memory") true (r0.memory = r.memory))
      rest

let all_engines ?config ?sample ?args f =
  List.map
    (fun (name, engine) -> (name, run_with ~engine ?config ?sample ?args f))
    engines

(* ---------------- pinned parity tests ---------------- *)

(* A long run: thousands of iterations through the data-dependent
   diamond, every instruction kind on the path. *)
let test_long_run_parity () =
  let f = branchy_kernel ~n:4000 ~stride:17 ~with_prefetch:true ~with_store:true () in
  check_identical "long run" (all_engines f)

let test_sampler_parity () =
  let f = branchy_kernel ~n:1500 ~stride:29 ~with_prefetch:false ~with_store:false () in
  check_identical "sampler" (all_engines ~sample:true f)

let test_fuse_parity () =
  let f = branchy_kernel ~n:100_000 ~stride:7 ~with_prefetch:false ~with_store:false () in
  let config =
    { Machine.default_config with Machine.max_instructions = 10_000 }
  in
  let runs = all_engines ~config f in
  check_identical "fuse" runs;
  List.iter
    (fun (e, r) ->
      (* The interpreter charges one instruction at a time, so the blow
         payload is always exactly fuse + 1 — pinned here so the
         compiled engine's batch settlement can't drift. *)
      Alcotest.(check (option string))
        (e ^ " fuse payload")
        (Some "Fuse_blown 10001") r.failure)
    runs

let test_deadline_parity () =
  let f = branchy_kernel ~n:100_000 ~stride:3 ~with_prefetch:true ~with_store:false () in
  let config = { Machine.default_config with Machine.max_cycles = 50_000 } in
  let runs = all_engines ~config f in
  check_identical "deadline" runs;
  List.iter
    (fun (_, r) ->
      match r.failure with
      | Some s ->
        Alcotest.(check bool)
          "deadline failure shape" true
          (String.length s >= 14 && String.sub s 0 14 = "Deadline_blown")
      | None -> Alcotest.fail "expected Deadline_blown")
    runs

(* The watchdog's cycle budget is enforced through the same machine
   fuse; its [t_spent] must name the same cycle under every engine. *)
let test_watchdog_parity () =
  let f = branchy_kernel ~n:100_000 ~stride:11 ~with_prefetch:false ~with_store:false () in
  let wd_config =
    {
      Watchdog.unlimited with
      Watchdog.measure_budget = { Watchdog.max_cycles = 40_000; max_steps = 0 };
    }
  in
  let spent =
    List.map
      (fun (name, engine) ->
        let mem, base = fresh_mem () in
        match
          Watchdog.run ~config:wd_config ~machine:Machine.default_config
            Watchdog.Measure
            (fun machine ->
              Machine.set_default_engine engine;
              Machine.execute ~config:machine ~args:[ base; 7 ] ~mem f)
        with
        | _ -> Alcotest.fail "expected Timed_out"
        | exception Watchdog.Timed_out t ->
          Alcotest.(check int)
            (name ^ " watchdog limit")
            40_000 t.Watchdog.t_limit;
          t.Watchdog.t_spent)
      engines
  in
  (match spent with
  | a :: rest ->
    List.iter (fun b -> Alcotest.(check int) "watchdog t_spent" a b) rest
  | [] -> ());
  Machine.set_default_engine (List.assoc "compiled" engines)

(* A misspelt APTGET_ENGINE must be rejected, naming the known engines:
   falling back to the compiled default would make an interpreter
   oracle run quietly diff the compiled engine against itself. *)
let test_env_engine () =
  let saved = Sys.getenv_opt "APTGET_ENGINE" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "APTGET_ENGINE" (Option.value saved ~default:"compiled"))
    (fun () ->
      List.iter
        (fun (name, engine) ->
          Unix.putenv "APTGET_ENGINE" (String.uppercase_ascii name);
          Alcotest.(check bool)
            (name ^ " from the environment")
            true
            (Machine.engine_of_env () = engine))
        engines;
      List.iter
        (fun bad ->
          Unix.putenv "APTGET_ENGINE" bad;
          Alcotest.check_raises ("rejects " ^ bad)
            (Invalid_argument
               (Printf.sprintf
                  "bad APTGET_ENGINE value: %s (known: compiled, interp)" bad))
            (fun () -> ignore (Machine.engine_of_env ())))
        [ "interpreted"; "compiled-fast"; "" ])

(* ---------------- property: mutate-derived programs ---------------- *)

(* Random structural mutations (entry padding, dead code, block
   splits) over randomly parameterized kernels; every engine must
   agree on the full observable tuple and the sampler tallies. *)
let prop_mutated_programs =
  QCheck.Test.make ~name:"engines agree on mutated programs" ~count:30
    QCheck.(
      quad (int_range 1 400) (int_range 1 64) (int_range 0 3) small_int)
    (fun (n, stride, mutations, salt) ->
      let f =
        branchy_kernel ~n ~stride
          ~with_prefetch:(salt land 1 = 0)
          ~with_store:(salt land 2 = 0)
          ()
      in
      let f = if mutations land 1 <> 0 then Mutate.pad_entry f else f in
      let f =
        if mutations land 2 <> 0 then Mutate.split_all ~min_instrs:2 f else f
      in
      Verify.check_exn f;
      let runs = all_engines ~sample:(salt land 4 = 0) f in
      match runs with
      | [] -> true
      | (_, r0) :: rest -> List.for_all (fun (_, r) -> r = r0) rest)

(* ---------------- property: every ALU opcode and shape ---------------- *)

let binops = Ir.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
let cmp_ops = Ir.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* One straight-line block over params (base, x, y): every binop and
   compare in all four operand shapes, where the immediates carry the
   same values [a] and [b] that x and y are bound to. All results are
   computed first, so the compiled engine batches them into one ALU
   run when unsampled, then stored at base + k, four slots per op in
   shape order Reg/Reg, Reg/Imm, Imm/Reg, Imm/Imm. *)
let alu_kernel a b =
  let bld = Builder.create ~name:"alu" ~nparams:3 in
  let base, x, y =
    match Builder.params bld with
    | [ p; q; r ] -> (p, q, r)
    | _ -> assert false
  in
  let shapes =
    [ (x, y); (x, Ir.Imm b); (Ir.Imm a, y); (Ir.Imm a, Ir.Imm b) ]
  in
  let results =
    List.concat_map
      (fun op -> List.map (fun (l, r) -> Builder.binop bld op l r) shapes)
      binops
    @ List.concat_map
        (fun op -> List.map (fun (l, r) -> Builder.cmp bld op l r) shapes)
        cmp_ops
  in
  List.iteri
    (fun k v ->
      Builder.store bld ~addr:(Builder.add bld base (Ir.Imm k)) ~value:v)
    results;
  Builder.ret bld None;
  let f = Builder.finish bld in
  Verify.check_exn f;
  f

(* Zero divisors, negatives, shift counts at and past the 62-bit mask,
   and the extremes, mixed with arbitrary ints. *)
let alu_value =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      oneof
        [
          oneofl [ 0; 1; -1; 2; -7; 61; 62; 63; 64; 127; max_int; min_int ];
          int_range 62 200;
          int_range (-1000) 1000;
          int;
        ])

let prop_alu_shapes =
  QCheck.Test.make ~name:"engines agree on every ALU opcode and operand shape"
    ~count:100 (QCheck.pair alu_value alu_value) (fun (a, b) ->
      let f = alu_kernel a b in
      List.for_all
        (fun sample ->
          match all_engines ~sample ~args:[ a; b ] f with
          | [] -> true
          | (_, r0) :: rest ->
            let nops = List.length binops + List.length cmp_ops in
            (* The four shapes of one op compute the same value. *)
            List.for_all
              (fun op ->
                let v k = r0.memory.((op * 4) + k) in
                v 1 = v 0 && v 2 = v 0 && v 3 = v 0)
              (List.init nops Fun.id)
            && List.for_all (fun (_, r) -> r = r0) rest)
        [ false; true ])

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "long-run parity" `Quick test_long_run_parity;
          Alcotest.test_case "sampler parity" `Quick test_sampler_parity;
          Alcotest.test_case "fuse parity" `Quick test_fuse_parity;
          Alcotest.test_case "deadline parity" `Quick test_deadline_parity;
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          Alcotest.test_case "APTGET_ENGINE validation" `Quick test_env_engine;
          QCheck_alcotest.to_alcotest prop_mutated_programs;
          QCheck_alcotest.to_alcotest prop_alu_shapes;
        ] );
    ]
