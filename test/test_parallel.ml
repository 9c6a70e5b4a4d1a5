(* Parallel-execution tests: the domain pool itself (ordering, exception
   propagation, nesting), the bit-for-bit determinism contract of the
   trajectory runner, experiment grids and a compile-and-simulate study
   across pool sizes, and the reliability matrix's uncoupled lookup. *)

module Pool = Parallel.Pool
module Machines = Device.Machines
module Reliability = Triq.Reliability
module Runner = Sim.Runner
module Programs = Bench_kit.Programs
module E = Bench_kit.Experiments

(* ---------- Pool basics ---------- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_pool_map_empty_and_single () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun x -> x) []);
      Alcotest.(check (list int)) "single" [ 7 ] (Pool.map pool (fun x -> x + 1) [ 6 ]))

let test_pool_jobs_one_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      Alcotest.(check (list int))
        "sequential degradation" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

exception Boom of int

let test_pool_exception_lowest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* Several items raise; the caller must observe the lowest-index
         failure regardless of which domain hits its error first. *)
      let f x = if x mod 3 = 1 then raise (Boom x) else x in
      Alcotest.check_raises "lowest index wins" (Boom 1) (fun () ->
          ignore (Pool.map pool f (List.init 50 Fun.id))))

let test_pool_map_reduce () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n =
        Pool.map_reduce pool
          ~map:(fun x -> x * x)
          ~reduce:( + ) ~init:0
          (List.init 101 Fun.id)
      in
      Alcotest.(check int) "sum of squares" 338350 n)

let test_pool_nested_maps () =
  (* A map whose work items themselves map on the same pool must not
     deadlock: the helping scheduler lets blocked callers drain queued
     batches. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let rows =
        Pool.map pool
          (fun i -> Pool.map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list (list int)))
        "nested results"
        [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
        rows)

let test_pool_default_resize () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 3;
      Alcotest.(check int) "resized" 3 (Pool.default_jobs ());
      Alcotest.(check int) "live pool matches" 3 (Pool.jobs (Pool.default ())))

(* ---------- Trajectory-runner determinism across pool sizes ---------- *)

let compiled_bv machine n =
  let p = Programs.bv n in
  ( Triq.Pipeline.compile_level machine p.Programs.circuit
      ~level:Triq.Pipeline.OneQOptCN,
    p.Programs.spec )

let check_outcome_equal what (a : Runner.outcome) (b : Runner.outcome) =
  Alcotest.(check (list (pair string (float 0.0))))
    (what ^ ": distribution") a.Runner.distribution b.Runner.distribution;
  Alcotest.(check (list (pair string int)))
    (what ^ ": counts") a.Runner.counts b.Runner.counts;
  Alcotest.(check (float 0.0))
    (what ^ ": success") a.Runner.success_rate b.Runner.success_rate;
  Alcotest.(check bool)
    (what ^ ": dominant") a.Runner.dominant_correct b.Runner.dominant_correct

let test_runner_deterministic_across_jobs () =
  let compiled, spec = compiled_bv Machines.ibmq14 6 in
  Pool.with_pool ~jobs:1 (fun seq ->
      Pool.with_pool ~jobs:4 (fun par ->
          let run pool = Runner.simulate ~config:(Runner.Config.make ~trajectories:60 ~pool ()) compiled spec in
          check_outcome_equal "plain" (run seq) (run par);
          let run_t1 pool =
            Runner.simulate ~config:(Runner.Config.make ~trajectories:40 ~explicit_t1:true ~pool ()) compiled spec
          in
          check_outcome_equal "explicit t1" (run_t1 seq) (run_t1 par);
          let run_sc pool =
            Runner.simulate ~config:(Runner.Config.make ~trajectories:40 ~sample_counts:true ~pool ()) compiled spec
          in
          check_outcome_equal "sampled counts" (run_sc seq) (run_sc par)))

let test_runner_block_boundaries () =
  (* Trajectory counts around the block size (25) exercise partial final
     blocks; each must still agree across pool sizes. *)
  let compiled, spec = compiled_bv Machines.ibmq5 4 in
  Pool.with_pool ~jobs:1 (fun seq ->
      Pool.with_pool ~jobs:3 (fun par ->
          List.iter
            (fun trajectories ->
              let run pool = Runner.simulate ~config:(Runner.Config.make ~trajectories ~pool ()) compiled spec in
              check_outcome_equal
                (Printf.sprintf "%d trajectories" trajectories)
                (run seq) (run par))
            [ 1; 24; 25; 26; 50; 51 ]))

let test_experiment_grid_deterministic () =
  (* A fig9-style grid through the process-wide default pool: the public
     knob the -j flags turn. *)
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      let grid jobs =
        Pool.set_default_jobs jobs;
        E.fig9_data ~trajectories:5 ()
      in
      let seq = grid 1 in
      let par = grid 4 in
      Alcotest.(check bool) "fig9 grid identical at -j 1 and -j 4" true (seq = par))

let test_cold_caches_study_deterministic () =
  (* Every bundled benchmark on IBMQ14, Aspen3 and UMDTI, compiled at
     TriQ-1QOptCN (each compile builds its own reliability matrix) and
     simulated with 50 trajectories: -j 8 (concurrent compiles, racing
     Clifford-action memo stores) must reproduce -j 1 byte for byte. *)
  let cells =
    List.concat_map
      (fun m ->
        Programs.all
        |> List.filter (fun (p : Programs.t) -> Device.Machine.fits m p.Programs.circuit)
        |> List.map (fun p -> (m, p)))
      [ Machines.ibmq14; Machines.aspen3; Machines.umdti ]
  in
  let cell pool (m, (p : Programs.t)) =
    let compiled =
      Triq.Pipeline.compile_level m p.Programs.circuit ~level:Triq.Pipeline.OneQOptCN
    in
    let config = Runner.Config.make ~trajectories:50 ~pool () in
    let o = Runner.simulate ~config compiled p.Programs.spec in
    let executable = Backend.Emit.executable compiled in
    Marshal.to_string
      (executable, o.Runner.distribution, o.Runner.counts, o.Runner.success_rate) []
  in
  let run jobs = Pool.with_pool ~jobs (fun pool -> Pool.map pool (cell pool) cells) in
  Alcotest.(check int) "fitting cells" 33 (List.length cells);
  Alcotest.(check (list string)) "-j 8 = -j 1" (run 1) (run 8)

(* ---------- Reliability matrix ---------- *)

let test_edge_reliability_uncoupled () =
  let machine = Machines.ibmq14 in
  let calibration = Device.Machine.calibration machine ~day:0 in
  let r =
    Reliability.of_calibration ~noise_aware:true machine.Device.Machine.topology calibration
  in
  let coupled =
    match Device.Topology.edges machine.Device.Machine.topology with
    | (a, b) :: _ -> (a, b)
    | [] -> Alcotest.fail "no edges"
  in
  Alcotest.(check bool)
    "coupled pair positive" true
    (Reliability.edge_reliability r (fst coupled) (snd coupled) > 0.0);
  (* Qubits 0 and 7 are not adjacent on the Melbourne lattice. *)
  Alcotest.check_raises "uncoupled pair raises" Not_found (fun () ->
      ignore (Reliability.edge_reliability r 0 7))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "empty and single" `Quick test_pool_map_empty_and_single;
          Alcotest.test_case "jobs=1 inline" `Quick test_pool_jobs_one_inline;
          Alcotest.test_case "exception lowest index" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "map_reduce" `Quick test_pool_map_reduce;
          Alcotest.test_case "nested maps" `Quick test_pool_nested_maps;
          Alcotest.test_case "default resize" `Quick test_pool_default_resize;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "runner across jobs" `Quick
            test_runner_deterministic_across_jobs;
          Alcotest.test_case "block boundaries" `Quick test_runner_block_boundaries;
          Alcotest.test_case "experiment grid" `Quick
            test_experiment_grid_deterministic;
          Alcotest.test_case "cold caches study" `Quick
            test_cold_caches_study_deterministic;
        ] );
      ( "reliability",
        [ Alcotest.test_case "uncoupled raises" `Quick test_edge_reliability_uncoupled ] );
    ]
