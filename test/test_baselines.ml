(* Baseline-compiler tests: the Qiskit-like, Quil-like and Zulehner-like
   reimplementations must produce correct executables (visible gates,
   coupled 2Q operands, preserved semantics) while exhibiting the
   behavioural signatures the paper attributes to them. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Machines = Device.Machines
module Machine = Device.Machine
module Topology = Device.Topology
module Gateset = Device.Gateset
module Pipeline = Triq.Pipeline

let bv4 = Bench_kit.Programs.bv 4
let bv8 = Bench_kit.Programs.bv 8

let check_wellformed (compiled : Triq.Compiled.t) =
  let machine = compiled.Triq.Compiled.machine in
  Alcotest.(check bool) "visible gates" true
    (Gateset.circuit_visible machine.Machine.basis compiled.Triq.Compiled.hardware);
  List.iter
    (fun g ->
      match (g : G.t) with
      | Two (_, a, b) ->
        if not (Topology.coupled machine.Machine.topology a b) then
          Alcotest.failf "2Q gate on uncoupled pair (%d,%d)" a b
      | _ -> ())
    compiled.Triq.Compiled.hardware.Circuit.gates

let success (compiled : Triq.Compiled.t) spec =
  (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled spec).Sim.Runner.success_rate

(* ---------- Qiskit-like ---------- *)

let test_qiskit_wellformed () =
  List.iter
    (fun machine ->
      check_wellformed (Baselines.Qiskit_like.compile machine bv4.Bench_kit.Programs.circuit))
    [ Machines.ibmq5; Machines.ibmq14; Machines.ibmq16 ]

let test_qiskit_identity_layout () =
  let compiled = Baselines.Qiskit_like.compile Machines.ibmq14 bv4.Bench_kit.Programs.circuit in
  Alcotest.(check (array int)) "lexicographic layout" [| 0; 1; 2; 3 |]
    compiled.Triq.Compiled.initial_placement

let test_qiskit_correct_output () =
  (* Semantics: the Qiskit-like output still computes the right answer
     (high success on a noiseless-ish ideal check via strong dominance). *)
  let compiled = Baselines.Qiskit_like.compile Machines.ibmq5 bv4.Bench_kit.Programs.circuit in
  let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled bv4.Bench_kit.Programs.spec in
  Alcotest.(check bool)
    (Printf.sprintf "correct answer dominates (%.2f)" outcome.Sim.Runner.success_rate)
    true outcome.Sim.Runner.dominant_correct

let test_qiskit_seed_stability () =
  let a = Baselines.Qiskit_like.compile ~seed:3 Machines.ibmq14 bv8.Bench_kit.Programs.circuit in
  let b = Baselines.Qiskit_like.compile ~seed:3 Machines.ibmq14 bv8.Bench_kit.Programs.circuit in
  Alcotest.(check bool) "same seed, same output" true
    (Circuit.equal a.Triq.Compiled.hardware b.Triq.Compiled.hardware)

let test_triq_beats_qiskit () =
  (* The headline claim, in miniature: noise-adaptive TriQ beats the
     Qiskit baseline on IBMQ14 in geomean over a few benchmarks. *)
  let programs = [ bv4; Bench_kit.Programs.hidden_shift 4; Bench_kit.Programs.toffoli ] in
  let ratios =
    List.map
      (fun (p : Bench_kit.Programs.t) ->
        let triq =
          Pipeline.compile_level Machines.ibmq14 p.Bench_kit.Programs.circuit
            ~level:Pipeline.OneQOptCN
        in
        let qiskit = Baselines.Qiskit_like.compile Machines.ibmq14 p.Bench_kit.Programs.circuit in
        ( success triq p.Bench_kit.Programs.spec,
          success qiskit p.Bench_kit.Programs.spec ))
      programs
  in
  let geo = Mathkit.Stats.geomean_ratio ratios in
  Alcotest.(check bool) (Printf.sprintf "geomean %.2fx > 1" geo) true (geo > 1.0)

(* ---------- Quil-like ---------- *)

let test_quil_wellformed () =
  List.iter
    (fun machine ->
      check_wellformed (Baselines.Quil_like.compile machine bv4.Bench_kit.Programs.circuit))
    [ Machines.agave; Machines.aspen1; Machines.aspen3 ]

let test_quil_home_positions () =
  (* The Quil-like router swaps qubits back: final placement = initial. *)
  let compiled = Baselines.Quil_like.compile Machines.agave bv4.Bench_kit.Programs.circuit in
  Alcotest.(check (array int)) "home positions"
    compiled.Triq.Compiled.initial_placement compiled.Triq.Compiled.final_placement

let test_quil_correct_output () =
  (* Aspen1's noise leaves the mode only ~0.01 ahead of the runner-up, so
     a small Monte-Carlo run resolves it by luck; assert on the exact
     density-matrix backend instead. *)
  let compiled = Baselines.Quil_like.compile Machines.aspen1 bv4.Bench_kit.Programs.circuit in
  let outcome = Sim.Density_runner.run compiled bv4.Bench_kit.Programs.spec in
  let dominant =
    match outcome.Sim.Density_runner.distribution with
    | (bits, _) :: _ -> bits
    | [] -> Alcotest.fail "empty distribution"
  in
  Alcotest.(check string) "correct answer dominates" "111" dominant

let test_quil_more_swaps_than_triq () =
  let p = bv4 in
  let quil = Baselines.Quil_like.compile Machines.agave p.Bench_kit.Programs.circuit in
  let triq =
    Pipeline.compile_level Machines.agave p.Bench_kit.Programs.circuit ~level:Pipeline.OneQOptCN
  in
  Alcotest.(check bool)
    (Printf.sprintf "quil %d >= triq %d swaps" quil.Triq.Compiled.swap_count
       triq.Triq.Compiled.swap_count)
    true
    (quil.Triq.Compiled.swap_count >= triq.Triq.Compiled.swap_count)

(* ---------- Zulehner-like ---------- *)

let test_zulehner_wellformed () =
  check_wellformed (Baselines.Zulehner_like.compile Machines.ibmq16 bv8.Bench_kit.Programs.circuit)

let test_zulehner_locality () =
  (* The greedy placement keeps interacting qubits within small hop
     distances — for BV (star graph) the ancilla must sit adjacent to at
     least two data qubits on IBMQ16. *)
  let compiled = Baselines.Zulehner_like.compile Machines.ibmq16 bv4.Bench_kit.Programs.circuit in
  let placement = compiled.Triq.Compiled.initial_placement in
  let topo = Machines.ibmq16.Machine.topology in
  let ancilla = placement.(3) in
  let adjacent =
    List.length
      (List.filter
         (fun d -> Topology.coupled topo placement.(d) ancilla)
         [ 0; 1; 2 ])
  in
  Alcotest.(check bool) (Printf.sprintf "%d adjacent" adjacent) true (adjacent >= 2)

let test_zulehner_correct_output () =
  let compiled = Baselines.Zulehner_like.compile Machines.ibmq16 bv4.Bench_kit.Programs.circuit in
  let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled bv4.Bench_kit.Programs.spec in
  Alcotest.(check bool) "correct answer dominates" true outcome.Sim.Runner.dominant_correct

let test_compiler_labels () =
  let q = Baselines.Qiskit_like.compile Machines.ibmq5 bv4.Bench_kit.Programs.circuit in
  let u = Baselines.Quil_like.compile Machines.agave bv4.Bench_kit.Programs.circuit in
  let z = Baselines.Zulehner_like.compile Machines.ibmq16 bv4.Bench_kit.Programs.circuit in
  Alcotest.(check string) "qiskit" "Qiskit" q.Triq.Compiled.compiler;
  Alcotest.(check string) "quil" "Quil" u.Triq.Compiled.compiler;
  Alcotest.(check string) "zulehner" "Zulehner" z.Triq.Compiled.compiler

let () =
  Alcotest.run "baselines"
    [
      ( "qiskit_like",
        [
          Alcotest.test_case "wellformed" `Quick test_qiskit_wellformed;
          Alcotest.test_case "identity layout" `Quick test_qiskit_identity_layout;
          Alcotest.test_case "correct output" `Quick test_qiskit_correct_output;
          Alcotest.test_case "seed stability" `Quick test_qiskit_seed_stability;
          Alcotest.test_case "triq beats qiskit" `Quick test_triq_beats_qiskit;
        ] );
      ( "quil_like",
        [
          Alcotest.test_case "wellformed" `Quick test_quil_wellformed;
          Alcotest.test_case "home positions" `Quick test_quil_home_positions;
          Alcotest.test_case "correct output" `Quick test_quil_correct_output;
          Alcotest.test_case "swap overhead" `Quick test_quil_more_swaps_than_triq;
        ] );
      ( "zulehner_like",
        [
          Alcotest.test_case "wellformed" `Quick test_zulehner_wellformed;
          Alcotest.test_case "locality" `Quick test_zulehner_locality;
          Alcotest.test_case "correct output" `Quick test_zulehner_correct_output;
        ] );
      ("labels", [ Alcotest.test_case "compiler names" `Quick test_compiler_labels ]);
    ]
