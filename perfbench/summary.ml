(* Order statistics over a run's repeated measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> invalid_arg "Summary.median: empty"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method, exactly as Python's
   [statistics.quantiles(xs, n=4)] computes them, since that is how
   run-to-run spread is judged: cut point i sits at rank i(n+1)/4 of
   the sorted data, with the rank clamped to [1, n-1] and the
   interpolation weight left unclamped. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Summary.quartiles: need at least two values";
  let cut i =
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = (i * (n + 1)) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

let geomean = function
  | [] -> invalid_arg "Summary.geomean: empty"
  | xs ->
    if List.exists (fun x -> not (x > 0.)) xs then
      invalid_arg "Summary.geomean: non-positive value";
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
         /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b
