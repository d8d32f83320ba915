(* The benchmark's own code: metric catalogue, statistics helpers, the
   result line, span self times, and the instruments' claim to leave
   the simulated outcomes alone. Programs run at quick sizes. *)

open Perfbench
module Pipeline = Aptget_core.Pipeline
module Machine = Aptget_machine.Machine
module Trace = Aptget_obs.Trace
module Workload = Aptget_workloads.Workload

let close = Alcotest.float 1e-12

(* ---- catalogue ---- *)

let names specs = List.map (fun (s : Report.spec) -> s.Report.name) specs
let catalogue = Report.end_to_end @ Report.per_layer

let test_charset () =
  List.iter
    (fun (s : Report.spec) ->
      Alcotest.(check bool) ("name " ^ s.Report.name) true (Report.valid_name s.Report.name);
      Alcotest.(check bool) ("unit " ^ s.Report.unit_) true (Report.valid_unit s.Report.unit_))
    catalogue;
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Report.valid_name bad))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  Alcotest.(check bool) "unit too long" false (Report.valid_unit (String.make 17 's'));
  Alcotest.(check bool) "unit slash" true (Report.valid_unit "Minstr/s");
  let all = names catalogue in
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  let setup = List.find (fun (s : Report.spec) -> s.Report.name = "setup_s") Report.end_to_end in
  Alcotest.(check bool) "setup_s is lower-is-better seconds" true
    (setup.Report.unit_ = "s" && setup.Report.better = Report.Lower)

(* BENCHMARK.json declares exactly the catalogue's metrics, with the
   same units and directions, plus the workloads. *)
let test_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let scan re group =
    let rec go pos acc =
      match Str.search_forward re text pos with
      | _ -> go (Str.match_end ()) (group () :: acc)
      | exception Not_found -> List.sort compare acc
    in
    go 0 []
  in
  let field key = "\"" ^ key ^ "\": \"\\([^\"]*\\)\"" in
  let metric = Str.regexp (String.concat ",[ \n]*" [ field "name"; field "unit"; field "better" ]) in
  let declared =
    scan metric (fun () ->
        String.concat " " (List.map (fun i -> Str.matched_group i text) [ 1; 2; 3 ]))
  in
  let better = function Report.Lower -> "lower" | Report.Higher -> "higher" in
  Alcotest.(check (list string)) "metrics in BENCHMARK.json"
    (List.sort compare
       (List.map
          (fun (s : Report.spec) -> String.concat " " [ s.Report.name; s.Report.unit_; better s.Report.better ])
          catalogue))
    declared;
  let workload = Str.regexp (field "name" ^ ",[ \n]*\"why\"") in
  Alcotest.(check (list string)) "workloads in BENCHMARK.json"
    (List.sort compare (List.map fst Flow.workloads))
    (scan workload (fun () -> Str.matched_group 1 text))

(* ---- statistics ---- *)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Summary.quartiles xs in
  let check3 msg (a, b, c) xs =
    let a', b', c' = q xs in
    Alcotest.check close (msg ^ " q1") a a';
    Alcotest.check close (msg ^ " q2") b b';
    Alcotest.check close (msg ^ " q3") c c'
  in
  check3 "1..10" (2.75, 5.5, 8.25) (List.init 10 (fun i -> float_of_int (i + 1)));
  check3 "two values" (4.5, 6.0, 7.5) [ 7.; 5. ];
  check3 "squares" (1.75, 6.5, 14.25) [ 16.; 1.; 9.; 4. ];
  check3 "three" (1., 2., 3.) [ 3.; 1.; 2. ]

let test_median_geomean () =
  Alcotest.check close "odd" 3. (Summary.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "geomean" 4. (Summary.geomean [ 2.; 8. ]);
  Alcotest.check close "ratio by zero" 0. (Summary.ratio 1. 0.);
  Alcotest.check_raises "geomean of zero" (Invalid_argument "Summary.geomean: non-positive value")
    (fun () -> ignore (Summary.geomean [ 1.; 0. ]))

(* ---- result line ---- *)

let test_result_line () =
  let catalogue = [ Report.spec "latency_ms" "ms" Report.Lower; Report.spec "setup_s" "s" Report.Lower ] in
  Alcotest.(check string) "line"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_ms": {"value": 1.5, "unit": "ms"}, "setup_s": {"value": 0.10000000000000001, "unit": "s"}}}|}
    (Report.result_line ~correct:true ~attempted:3 ~failed:0 ~catalogue
       [ ("setup_s", 0.1); ("latency_ms", 1.5) ]);
  Alcotest.check_raises "missing metric"
    (Invalid_argument "Report.result_line: metrics do not match the catalogue") (fun () ->
      ignore (Report.result_line ~correct:true ~attempted:1 ~failed:0 ~catalogue [ ("setup_s", 1.) ]));
  Alcotest.(check bool) "nan rejected" true
    (match Report.number Float.nan with _ -> false | exception Invalid_argument _ -> true)

(* ---- span self times ---- *)

let test_self_times () =
  let span id parent name wall_s =
    { Trace.id; parent; depth = 0; name; attrs = []; wall_start = 0.; wall_s; cycles = None }
  in
  let self =
    Flow.self_times
      [
        span 1 None "bench.pass" 10.;
        span 2 (Some 1) "bench.program" 9.;
        span 3 (Some 2) "machine.execute" 5.;
        span 4 (Some 3) "stage.library" 2.;
        span 5 (Some 4) "workloads.verify" 1.;
        span 6 (Some 2) "workloads.build" 3.;
      ]
  in
  List.iter
    (fun (name, want) -> Alcotest.check close name want (List.assoc name self))
    [
      ("bench.pass", 1.); ("bench.program", 1.); ("machine.execute", 4.);
      ("workloads.verify", 1.); ("workloads.build", 3.); ("profile.refit", 0.);
    ]

(* ---- instruments leave outcomes alone ---- *)

let outcome (m : Pipeline.measurement) = m.Pipeline.outcome

let test_timed_build_pin () =
  List.iter
    (fun (w : Workload.t) ->
      let m = Flow.meter () in
      let timed = Flow.timed_build m w in
      let plain_apt, plain_prof = Pipeline.aptget w in
      let timed_apt, timed_prof = Pipeline.aptget timed in
      Alcotest.(check bool) (w.Workload.name ^ " baseline") true
        (outcome (Pipeline.baseline w) = outcome (Pipeline.baseline timed));
      Alcotest.(check bool) (w.Workload.name ^ " aptget") true
        (outcome plain_apt = outcome timed_apt
        && plain_prof.Aptget_profile.Profiler.hints = timed_prof.Aptget_profile.Profiler.hints);
      Alcotest.(check int) (w.Workload.name ^ " builds metered") 3 m.Flow.calls)
    (Programs.pgo_miss Programs.Quick ~seed:3 @ Programs.pgo_resident Programs.Quick ~seed:3)

(* The traced pass reimplements Pipeline's steps layer by layer; it
   must reproduce every outcome of the untraced pass, verify every run,
   and cover the pass with layer spans. *)
let test_traced_matches_untraced () =
  List.iter
    (fun (name, workload) ->
      let pass traced = Flow.run_pass ~traced ~size:Programs.Quick ~seed:5 workload in
      let u = pass false and t = pass true in
      Alcotest.(check string) (name ^ " digest") (Flow.digest u) (Flow.digest t);
      Alcotest.(check int) (name ^ " no failures") 0 (u.Flow.failed + t.Flow.failed);
      Alcotest.(check bool) (name ^ " runs verified") true (u.Flow.attempted > 0 && u.Flow.attempted = t.Flow.attempted);
      Alcotest.(check bool) (name ^ " untraced pass has no spans") true (u.Flow.spans = []);
      let self = Flow.self_times t.Flow.spans in
      let layer_s =
        List.fold_left (fun acc l -> acc +. List.assoc l self) 0. Flow.layers
      in
      Alcotest.(check bool) (name ^ " layer spans cover the pass") true
        (layer_s > 0.9 *. (layer_s +. List.assoc "bench.pass" self +. List.assoc "bench.program" self)))
    Flow.workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "metric charset" `Quick test_charset;
          Alcotest.test_case "BENCHMARK.json names" `Quick test_benchmark_json;
        ] );
      ( "summary",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "median and geomean" `Quick test_median_geomean;
        ] );
      ("report", [ Alcotest.test_case "result line" `Quick test_result_line ]);
      ("spans", [ Alcotest.test_case "self times" `Quick test_self_times ]);
      ( "instruments",
        [
          Alcotest.test_case "timed build pin" `Quick test_timed_build_pin;
          Alcotest.test_case "traced matches untraced" `Quick test_traced_matches_untraced;
        ] );
    ]
