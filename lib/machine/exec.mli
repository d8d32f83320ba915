(** Shared substrate of the simulator engines.

    Everything both the interpreter ({!Machine}) and the
    closure-compiled engine ({!Compiled}) must agree on byte-for-byte
    lives here: configuration and fuses, the mutable run state, value
    semantics for ALU/compare ops, the blocking core's charge, the
    block-dispatch step loop, parameter binding and the execution
    windowing machinery. {!Machine} re-exports the public pieces. *)

type core_model = Blocking | Stall_on_use of { window : int }

type config = {
  hierarchy : Aptget_cache.Hierarchy.config;
  max_instructions : int;
  max_cycles : int;
  core : core_model;
}

val default_config : config
val stall_on_use_config : ?window:int -> unit -> config

exception Fuse_blown of int
exception Deadline_blown of { cycles : int; limit : int }

val check_deadline : config -> int -> unit
(** Raise {!Deadline_blown} when [max_cycles] is positive and exceeded. *)

val eval_binop : Ir.binop -> int -> int -> int
val eval_cmp : Ir.cmp_op -> int -> int -> int

type state = {
  mutable cycle : int;
  mutable instrs : int;
  mutable loads : int;
  mutable prefetches : int;
}

val blocking_charge :
  config:config ->
  sampler:Aptget_pmu.Sampler.t option ->
  wtick:(state -> unit) option ->
  state ->
  int ->
  int ->
  unit
(** [blocking_charge ~config ~sampler ~wtick st] is the blocking core's
    [charge n_instr n_cycles]: advance [st], raise {!Fuse_blown} or
    {!Deadline_blown} past their limits, then tick the sampler and the
    window clock when present. The shape is chosen once per run, so an
    unsampled, window-less run pays for neither test. *)

val dispatch : entry:int -> (int -> int -> int) -> unit -> bool
(** [dispatch ~entry run_block] is the step loop shared by every
    stepper: each call runs one block through [run_block cur prev]
    (which returns the next block id, or -1 after [Ret]) and returns
    false once [Ret] has executed, and on every call after. *)

type window_report = {
  w_index : int;
  w_start_cycle : int;
  w_end_cycle : int;
  w_instructions : int;
  w_counters : Aptget_cache.Hierarchy.counters;
}

val make_windowing :
  hier:Aptget_cache.Hierarchy.t ->
  window_cycles:int ->
  on_window:(window_report -> unit) ->
  (state -> unit) * (state -> unit)
(** [(tick, finish)]: [tick st] fires [on_window] whenever the cycle
    clock crosses the next window boundary; [finish st] flushes the
    trailing partial window. *)

val bind_params : Ir.func -> int array -> int list -> unit
(** Bind positional args to parameter registers; extras ignored,
    missing ones left at the register default. *)
