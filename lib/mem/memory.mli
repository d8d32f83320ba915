(** Word-addressed simulated memory: one contiguous address space.

    The workloads lay out their data structures (graphs, tables, hash
    buckets) in this address space; the timing simulator translates word
    addresses to 64-byte cache lines. One word = 8 bytes, so 8 words per
    line. Addresses are plain [int] word indices.

    The words live in a [Bigarray.Array1] of native ints outside the
    OCaml heap: the GC never scans the payload and the load/store hot
    path pays no boxing or tag overhead. *)

type t

type region = {
  name : string;
  base : int;  (** first word address *)
  words : int; (** length in words *)
}
(** A named allocation, used by workloads to pass base addresses into IR
    kernels and by diagnostics to attribute cache traffic. *)

val words_per_line : int
(** 8: cache line size (64 B) divided by word size (8 B). *)

val create : ?capacity_words:int -> unit -> t
(** Fresh memory; capacity defaults to 1 Mi words (8 MiB) and grows on
    demand in [alloc]. *)

val alloc : t -> name:string -> words:int -> region
(** Bump-allocate [words] words, line-aligned, zero-initialised. *)

val size_words : t -> int
(** Words allocated so far. *)

val get : t -> int -> int
(** [get t addr] reads the word at [addr]. Bounds-checked. *)

val set : t -> int -> int -> unit
(** [set t addr v] writes [v] at [addr]. Bounds-checked. *)

val blit_array : t -> region -> int array -> unit
(** Copy an OCaml array into a region (must fit). *)

val read_array : t -> region -> int array
(** Copy a region out into a fresh array. *)

val line_of_addr : int -> int
(** Cache line index of a word address. *)

val regions : t -> region list
(** All allocations, in allocation order. *)

val find_region : t -> int -> region option
(** Region containing a word address, if any. *)
