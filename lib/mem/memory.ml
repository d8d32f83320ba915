type region = { name : string; base : int; words : int }

type big = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The words live in a [Bigarray.Array1] of native ints: the payload
   sits outside the OCaml heap (the GC never scans it) and elements are
   untagged machine words, which keeps the simulator's load/store hot
   path free of boxing and tag overhead.

   [Bigarray.Array1.create] does not zero its storage, so both the
   initial buffer and every grown tail are zero-filled explicitly —
   alignment gaps between regions are readable (addr < next) and must
   read 0. *)
type t = { mutable data : big; mutable next : int }

let words_per_line = 8

let make_big cap : big =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  Bigarray.Array1.fill b 0;
  b

let create ?(capacity_words = 1 lsl 20) () =
  { data = make_big capacity_words; next = 0 }

let ensure t needed =
  let cap = Bigarray.Array1.dim t.data in
  if needed > cap then begin
    let fresh = make_big (max needed (cap * 2)) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.data 0 t.next)
      (Bigarray.Array1.sub fresh 0 t.next);
    t.data <- fresh
  end

let align_up v a = (v + a - 1) / a * a

let alloc t ~name ~words =
  if words < 0 then invalid_arg "Memory.alloc: negative size";
  let base = align_up t.next words_per_line in
  let words_alloc = max words 1 in
  ensure t (base + words_alloc);
  Bigarray.Array1.fill (Bigarray.Array1.sub t.data base words_alloc) 0;
  t.next <- base + words_alloc;
  { name; base; words = words_alloc }

let size_words t = t.next

(* Cold out-of-bounds paths are split out so the bounds-checked
   accessors below stay small enough for cross-module inlining — [get]
   and [set] sit on the simulator's per-load/store hot path. *)
let[@inline never] oob_get addr =
  invalid_arg (Printf.sprintf "Memory.get: address %d out of bounds" addr)

let[@inline never] oob_set addr =
  invalid_arg (Printf.sprintf "Memory.set: address %d out of bounds" addr)

(* The explicit range check already implies the access is in bounds
   ([next <= capacity] is an [ensure] invariant), so the access itself
   can skip the second, redundant bounds check. *)
let[@inline] get t addr =
  if addr < 0 || addr >= t.next then oob_get addr;
  Bigarray.Array1.unsafe_get t.data addr

let[@inline] set t addr v =
  if addr < 0 || addr >= t.next then oob_set addr;
  Bigarray.Array1.unsafe_set t.data addr v

let blit_array t r a =
  if Array.length a > r.words then invalid_arg "Memory.blit_array: too large";
  for i = 0 to Array.length a - 1 do
    Bigarray.Array1.unsafe_set t.data (r.base + i) (Array.unsafe_get a i)
  done
