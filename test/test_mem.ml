module Memory = Aptget_mem.Memory

(* Copy a region out through the public accessor. *)
let read_region m (r : Memory.region) =
  Array.init r.Memory.words (fun i -> Memory.get m (r.Memory.base + i))

let test_alloc_aligned () =
  let m = Memory.create () in
  let a = Memory.alloc m ~name:"a" ~words:3 in
  let b = Memory.alloc m ~name:"b" ~words:5 in
  Alcotest.(check int) "first at 0" 0 a.Memory.base;
  Alcotest.(check int) "line aligned" 0 (b.Memory.base mod Memory.words_per_line);
  Alcotest.(check bool) "disjoint" true (b.Memory.base >= a.Memory.base + a.Memory.words)

let test_zero_initialised () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:16 in
  for i = 0 to 15 do
    Alcotest.(check int) "zero" 0 (Memory.get m (r.Memory.base + i))
  done

let test_get_set () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:4 in
  Memory.set m (r.Memory.base + 2) 99;
  Alcotest.(check int) "roundtrip" 99 (Memory.get m (r.Memory.base + 2))

let test_bounds () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:4 in
  ignore r;
  Alcotest.(check bool) "oob get raises" true
    (try
       ignore (Memory.get m 100_000);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative get raises" true
    (try
       ignore (Memory.get m (-1));
       false
     with Invalid_argument _ -> true)

let test_blit_read_roundtrip () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:8 in
  let data = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Memory.blit_array m r data;
  Alcotest.(check (array int)) "roundtrip" data (read_region m r)

let test_blit_too_large () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:2 in
  Alcotest.check_raises "too large" (Invalid_argument "Memory.blit_array: too large")
    (fun () -> Memory.blit_array m r [| 1; 2; 3 |])

let test_growth () =
  let m = Memory.create ~capacity_words:16 () in
  let r = Memory.alloc m ~name:"big" ~words:10_000 in
  Memory.set m (r.Memory.base + 9_999) 7;
  Alcotest.(check int) "grown" 7 (Memory.get m (r.Memory.base + 9_999))

(* Region-edge accesses: the last allocated word is the edge of the
   bounds check ([next]), so get/set must work at [base + words - 1]
   and raise one word past it. The unsafe accessors behind the
   explicit check make this the test that matters. *)
let test_region_edges () =
  let m = Memory.create ~capacity_words:64 () in
  let r = Memory.alloc m ~name:"edge" ~words:24 in
  let last = r.Memory.base + r.Memory.words - 1 in
  Memory.set m r.Memory.base 11;
  Memory.set m last 22;
  Alcotest.(check int) "first word" 11 (Memory.get m r.Memory.base);
  Alcotest.(check int) "last word" 22 (Memory.get m last);
  Alcotest.(check bool) "get past end raises" true
    (try
       ignore (Memory.get m (last + 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "set past end raises" true
    (try
       Memory.set m (last + 1) 1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative set raises" true
    (try
       Memory.set m (-1) 1;
       false
     with Invalid_argument _ -> true);
  (* blit_array: exactly full is fine (and lands on the edge), one
     element more must raise before touching memory. *)
  let full = Array.init r.Memory.words (fun i -> 100 + i) in
  Memory.blit_array m r full;
  Alcotest.(check int) "blit reaches last word" (100 + r.Memory.words - 1)
    (Memory.get m last);
  Alcotest.(check (array int)) "blit roundtrip" full (read_region m r);
  Alcotest.check_raises "blit overflow"
    (Invalid_argument "Memory.blit_array: too large") (fun () ->
      Memory.blit_array m r (Array.make (r.Memory.words + 1) 0));
  Alcotest.(check int) "overflow left memory untouched"
    (100 + r.Memory.words - 1)
    (Memory.get m last);
  (* A grown memory keeps its contents and the same edge behaviour. *)
  let big = Memory.alloc m ~name:"grown" ~words:4096 in
  Alcotest.(check int) "contents survive growth" 100 (Memory.get m r.Memory.base);
  let glast = big.Memory.base + big.Memory.words - 1 in
  Memory.set m glast 33;
  Alcotest.(check int) "grown last word" 33 (Memory.get m glast);
  Alcotest.(check bool) "grown get past end raises" true
    (try
       ignore (Memory.get m (glast + 1));
       false
     with Invalid_argument _ -> true)

(* Memory against a test-local reference: a plain [int array] over the
   same address range, zero-initialised, taking the same writes. The
   allocations grow memory past its 16-word initial capacity and leave
   alignment gaps between regions, which must read 0. *)
let prop_matches_array_model =
  QCheck.Test.make ~name:"memory matches an int array model" ~count:50
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 4) (int_range 1 40))
        (list_of_size Gen.(1 -- 40) (pair small_nat int)))
    (fun (sizes, writes) ->
      let m = Memory.create ~capacity_words:16 () in
      let regions =
        List.map (fun words -> Memory.alloc m ~name:"r" ~words) sizes
      in
      let n = Memory.size_words m in
      let model = Array.make n 0 in
      List.iter
        (fun (a, v) ->
          let a = a mod n in
          Memory.set m a v;
          model.(a) <- v)
        writes;
      Array.init n (Memory.get m) = model
      && List.for_all
           (fun (r : Memory.region) ->
             read_region m r = Array.sub model r.Memory.base r.Memory.words)
           regions)

let prop_alloc_disjoint =
  QCheck.Test.make ~name:"allocations never overlap" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 64))
    (fun sizes ->
      let m = Memory.create () in
      let regions =
        List.map (fun w -> Memory.alloc m ~name:"r" ~words:w) sizes
      in
      let rec disjoint = function
        | [] -> true
        | (r : Memory.region) :: rest ->
          List.for_all
            (fun (s : Memory.region) ->
              r.Memory.base + r.Memory.words <= s.Memory.base
              || s.Memory.base + s.Memory.words <= r.Memory.base)
            rest
          && disjoint rest
      in
      disjoint regions)

let () =
  Alcotest.run "mem"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc aligned" `Quick test_alloc_aligned;
          Alcotest.test_case "zero initialised" `Quick test_zero_initialised;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "blit roundtrip" `Quick test_blit_read_roundtrip;
          Alcotest.test_case "blit too large" `Quick test_blit_too_large;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "region edges" `Quick test_region_edges;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_alloc_disjoint;
          QCheck_alcotest.to_alcotest prop_matches_array_model;
        ] );
    ]
