(* The benchmark's seeded programs. Every program is built through its
   workload's public parameters with the benchmark's seed in place of
   the default one; [Full] is the repository's default size and
   [Quick] a miniature of the same shape for the test suite. *)

module Workload = Aptget_workloads.Workload
module Randacc = Aptget_workloads.Randacc
module Hashjoin = Aptget_workloads.Hashjoin
module Spmv = Aptget_workloads.Spmv
module Btree = Aptget_workloads.Btree
module Thrash = Aptget_workloads.Thrash
module Suite = Aptget_workloads.Suite
module Datasets = Aptget_graph.Datasets
module Csr = Aptget_graph.Csr

type size = Full | Quick

let randacc size ~seed =
  let p =
    match size with
    | Full -> Randacc.default_params
    | Quick -> { Randacc.table_words = 1 lsl 16; updates = 8_192; seed }
  in
  Randacc.workload ~params:{ p with Randacc.seed } ~name:"randAcc" ()

let hj2 size ~seed =
  let p = Hashjoin.hj2_params in
  let p =
    match size with
    | Full -> p
    | Quick -> { p with Hashjoin.n_buckets = 1 lsl 12; n_build = 4_096; n_probe = 8_192 }
  in
  Hashjoin.workload ~params:{ p with Hashjoin.seed } ~name:"HJ2-NPO" ()

let spmv size ~seed =
  let p =
    match size with
    | Full -> Spmv.default_params
    | Quick -> { Spmv.rows = 512; nnz_per_row = 8; x_words = 1 lsl 14; seed }
  in
  Spmv.workload ~params:{ p with Spmv.seed } ~name:"spmv" ()

let btree size ~seed ~queries =
  let levels = match size with Full -> 4 | Quick -> 2 in
  Btree.workload ~params:{ Btree.levels; queries; seed } ~name:"btree" ()

(* BFS over the loc-Brightkite stand-in (Suite's BFS-LBE), its graph
   generated from the benchmark's seed. *)
let bfs_lbe size ~seed =
  let graph () =
    match size with
    | Full -> (
      match Datasets.find "LBE" with
      | Some spec -> Csr.symmetrize (Datasets.build ~seed spec)
      | None -> failwith "Programs.bfs_lbe: dataset LBE is missing")
    | Quick -> Csr.symmetrize (Datasets.synthetic ~seed ~nodes:2_000 ~degree:4 ())
  in
  Suite.bfs ~name:"BFS-LBE" ~graph ~input:"loc-Brightkite"

let pgo_miss size ~seed = [ randacc size ~seed; hj2 size ~seed; spmv size ~seed ]

let pgo_resident size ~seed =
  let queries = match size with Full -> Btree.default_params.Btree.queries | Quick -> 2_048 in
  [ btree size ~seed ~queries; bfs_lbe size ~seed ]

(* A tenant and the streaming thrasher it shares the LLC with, shaped
   as in the contention study: the thrasher is sized so that it is
   still running when the tenant finishes. *)
type pair = { tenant : Workload.t; corunner : Workload.t }

let thrash ~passes =
  Thrash.workload ~params:{ Thrash.words = 1 lsl 19; passes } ~name:"thrash" ()

let corun_pairs size ~seed =
  match size with
  | Full ->
    [
      {
        tenant =
          Randacc.workload
            ~params:{ Randacc.table_words = 1 lsl 22; updates = 262_144; seed }
            ~name:"randAcc" ();
        corunner = thrash ~passes:8;
      };
      { tenant = btree Full ~seed ~queries:32_768; corunner = thrash ~passes:24 };
    ]
  | Quick ->
    [
      { tenant = randacc Quick ~seed; corunner = thrash ~passes:1 };
      { tenant = btree Quick ~seed ~queries:2_048; corunner = thrash ~passes:1 };
    ]
