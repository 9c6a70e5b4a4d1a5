(* End-to-end integration tests.

   The central invariant: for every benchmark, machine and compiler in the
   study, the compiled hardware circuit executed noiselessly produces
   exactly the program's ideal output distribution (compilation preserves
   semantics); and executed noisily, the correct answer still dominates on
   the low-noise machine. Also covers Scaffold -> compile -> emit ->
   re-parse round trips. *)

module Programs = Bench_kit.Programs
module Machines = Device.Machines
module Machine = Device.Machine
module Pipeline = Triq.Pipeline
module Circuit = Ir.Circuit

(* Noiseless oracle, via the library's translation validator. *)
let check_semantics name (compiled : Triq.Compiled.t) (p : Programs.t) =
  let result =
    Sim.Verify.check_spec p.Programs.spec ~program:p.Programs.circuit compiled
  in
  if not result.Sim.Verify.equivalent then
    Alcotest.failf "%s: compiled circuit changed the program's output (tvd %.6f)"
      name result.Sim.Verify.total_variation

let semantic_machines =
  [ Machines.ibmq5; Machines.ibmq14; Machines.agave; Machines.aspen1; Machines.umdti ]

let semantic_benchmarks () =
  [ Programs.bv 4; Programs.hidden_shift 4; Programs.toffoli; Programs.adder ]

let test_triq_semantics_all_levels () =
  List.iter
    (fun machine ->
      List.iter
        (fun (p : Programs.t) ->
          if Machine.fits machine p.Programs.circuit then
            List.iter
              (fun level ->
                let compiled =
                  Pipeline.compile_level machine p.Programs.circuit ~level
                in
                check_semantics
                  (Printf.sprintf "%s/%s/%s" machine.Machine.name p.Programs.name
                     (Triq.Pass.level_name level))
                  compiled p)
              Pipeline.all_levels)
        (semantic_benchmarks ()))
    semantic_machines

let test_triq_semantics_across_days () =
  (* Noise-aware compilation changes placements day to day; semantics must
     not change. *)
  let machine = Machines.ibmq14 in
  let p = Programs.hidden_shift 4 in
  List.iter
    (fun day ->
      let compiled =
        Pipeline.compile_level ~config:(Triq.Pass.Config.make ~day ())
          machine p.Programs.circuit ~level:Pipeline.OneQOptCN
      in
      check_semantics (Printf.sprintf "day %d" day) compiled p)
    [ 0; 3; 7; 11 ]

let test_baseline_semantics () =
  let p = Programs.bv 4 in
  check_semantics "qiskit/ibmq14"
    (Baselines.Qiskit_like.compile Machines.ibmq14 p.Programs.circuit)
    p;
  check_semantics "quil/agave"
    (Baselines.Quil_like.compile Machines.agave p.Programs.circuit)
    p;
  check_semantics "zulehner/ibmq16"
    (Baselines.Zulehner_like.compile Machines.ibmq16 p.Programs.circuit)
    p

let test_sequences_semantics_on_umd () =
  List.iter
    (fun k ->
      let p = Bench_kit.Sequences.fredkin k in
      let compiled =
        Pipeline.compile_level Machines.umdti p.Programs.circuit ~level:Pipeline.OneQOptCN
      in
      check_semantics (Printf.sprintf "fredkin-x%d" k) compiled p)
    [ 1; 2; 3 ]

(* Scaffold source -> compile -> execute, end to end. *)
let test_scaffold_to_execution () =
  let source =
    {|
      module main() {
        qbit q[3];
        X(q[0]);
        X(q[1]);
        Toffoli(q[0], q[1], q[2]);
        measure(q);
      }
    |}
  in
  let program = Scaffold.Lower.compile_string source in
  let spec = Ir.Spec.deterministic program.Scaffold.Lower.measured "111" in
  List.iter
    (fun machine ->
      let compiled =
        Pipeline.compile_level machine program.Scaffold.Lower.circuit
          ~level:Pipeline.OneQOptCN
      in
      let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled spec in
      if not outcome.Sim.Runner.dominant_correct then
        Alcotest.failf "%s: wrong answer dominates" machine.Machine.name)
    [ Machines.ibmq5; Machines.umdti ]

(* Scaffold -> QASM -> parse -> same unitary. *)
let test_scaffold_qasm_roundtrip () =
  let source =
    {|
      module main() {
        qbit q[2];
        H(q[0]);
        CNOT(q[0], q[1]);
        measure(q);
      }
    |}
  in
  let program = Scaffold.Lower.compile_string source in
  let compiled =
    Pipeline.compile_level Machines.ibmq5 program.Scaffold.Lower.circuit
      ~level:Pipeline.OneQOptCN
  in
  let text = Backend.Qasm_emit.emit compiled in
  let parsed = Qasm.Frontend.parse text in
  Alcotest.(check bool) "roundtrip equal" true
    (Circuit.equal compiled.Triq.Compiled.hardware parsed.Qasm.Frontend.circuit)

(* Dominance under noise for all 12 benchmarks on the low-noise machine:
   none of them should fail outright on UMDTI (Figure 9b's observation). *)
let test_umdti_never_fails () =
  List.iter
    (fun (p : Programs.t) ->
      if Machine.fits Machines.umdti p.Programs.circuit then begin
        let compiled =
          Pipeline.compile_level Machines.umdti p.Programs.circuit
            ~level:Pipeline.OneQOptCN
        in
        let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled p.Programs.spec in
        if not outcome.Sim.Runner.dominant_correct then
          Alcotest.failf "%s failed on UMDTI" p.Programs.name;
        if outcome.Sim.Runner.success_rate < 0.5 then
          Alcotest.failf "%s success %.2f < 0.5 on UMDTI" p.Programs.name
            outcome.Sim.Runner.success_rate
      end)
    Programs.all

(* The ESP estimate must be correlated with measured success: for compiled
   variants of the same benchmark on the same machine, higher ESP should
   not give dramatically lower success. *)
let test_esp_tracks_success () =
  let machine = Machines.ibmq14 in
  let p = Programs.bv 6 in
  let variants =
    List.map
      (fun level -> Pipeline.compile_level machine p.Programs.circuit ~level)
      Pipeline.all_levels
  in
  let scored =
    List.map
      (fun c ->
        ( c.Triq.Compiled.esp,
          (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:200 ()) c p.Programs.spec).Sim.Runner.success_rate ))
      variants
  in
  List.iter
    (fun (esp1, s1) ->
      List.iter
        (fun (esp2, s2) ->
          if esp1 > esp2 +. 0.2 && s1 < s2 -. 0.1 then
            Alcotest.failf "ESP ordering violated: (%.2f,%.2f) vs (%.2f,%.2f)" esp1 s1
              esp2 s2)
        scored)
    scored

(* qcheck: compilation preserves semantics on random programs. *)

let random_program_gen =
  QCheck.Gen.(
    let n = 3 in
    let gate =
      oneof
        [
          map2 (fun q theta -> Ir.Gate.One (Ir.Gate.Rz theta, q)) (int_range 0 (n - 1))
            (float_range 0.0 6.28);
          map (fun q -> Ir.Gate.One (Ir.Gate.H, q)) (int_range 0 (n - 1));
          map (fun q -> Ir.Gate.One (Ir.Gate.T, q)) (int_range 0 (n - 1));
          map2
            (fun a d -> Ir.Gate.Two (Ir.Gate.Cnot, a, (a + 1 + d) mod n))
            (int_range 0 (n - 1)) (int_range 0 (n - 2));
          map2
            (fun a d -> Ir.Gate.Two (Ir.Gate.Cz, a, (a + 1 + d) mod n))
            (int_range 0 (n - 1)) (int_range 0 (n - 2));
        ]
    in
    map
      (fun gates ->
        Circuit.measure_all (Circuit.create n gates) [ 0; 1; 2 ])
      (list_size (int_range 1 15) gate))

(* Random machines: ring devices of random size and error profile. *)
let random_machine_gen =
  QCheck.Gen.(
    map3
      (fun n two_q seed ->
        Device.Machine.create
          ~name:(Printf.sprintf "RandRing%d" n)
          ~basis:Device.Gateset.Rigetti_visible
          ~topology:(Device.Topology.ring n)
          ~profile:
            {
              Device.Calibration.avg_one_q_err = 0.002;
              avg_two_q_err = two_q;
              avg_readout_err = 0.03;
              coherence_us = 25.0;
              one_q_time_us = 0.05;
              two_q_time_us = 0.25;
              spatial_sigma = 0.4;
              temporal_sigma = 0.2;
              two_q_scale = None;
            }
          ~seed)
      (int_range 3 9)
      (float_range 0.01 0.15)
      (int_range 1 100000))

let prop_compile_on_random_machines =
  QCheck.Test.make ~count:30
    ~name:"compile preserves semantics (random machines)"
    (QCheck.make random_machine_gen) (fun machine ->
      let program = (Bench_kit.Programs.toffoli).Programs.circuit in
      let compiled =
        Pipeline.compile_level machine program ~level:Pipeline.OneQOptCN
      in
      let result =
        Sim.Verify.check ~program ~measured:[ 0; 1; 2 ] compiled
      in
      result.Sim.Verify.equivalent)

let prop_compile_preserves_semantics =
  QCheck.Test.make ~count:40 ~name:"compile preserves semantics (random programs)"
    (QCheck.make random_program_gen) (fun program ->
      let measured = [ 0; 1; 2 ] in
      let program_ideal =
        Sim.Runner.ideal_distribution (Circuit.body program) ~measured
      in
      List.for_all
        (fun (machine, level) ->
          let compiled =
            Pipeline.compile_level machine program ~level
          in
          let hw, mapping = Circuit.compact compiled.Triq.Compiled.hardware in
          let measured_hw =
            List.map
              (fun p ->
                List.assoc (List.assoc p compiled.Triq.Compiled.readout_map) mapping)
              measured
          in
          let compiled_ideal =
            Sim.Runner.ideal_distribution (Circuit.body hw) ~measured:measured_hw
          in
          Sim.Dist.total_variation program_ideal compiled_ideal < 1e-6)
        [
          (Machines.ibmq5, Pipeline.OneQOptCN);
          (Machines.agave, Pipeline.OneQOptC);
          (Machines.umdti, Pipeline.OneQOpt);
          (Machines.ibmq14, Pipeline.N);
        ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compile_preserves_semantics; prop_compile_on_random_machines ]

let () =
  Alcotest.run "integration"
    [
      ( "semantics",
        [
          Alcotest.test_case "all machines x levels" `Slow test_triq_semantics_all_levels;
          Alcotest.test_case "across days" `Quick test_triq_semantics_across_days;
          Alcotest.test_case "baselines" `Quick test_baseline_semantics;
          Alcotest.test_case "umd sequences" `Quick test_sequences_semantics_on_umd;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "scaffold to execution" `Quick test_scaffold_to_execution;
          Alcotest.test_case "scaffold qasm roundtrip" `Quick test_scaffold_qasm_roundtrip;
          Alcotest.test_case "umdti never fails" `Slow test_umdti_never_fails;
          Alcotest.test_case "esp tracks success" `Slow test_esp_tracks_success;
        ] );
      ("properties", qcheck_cases);
    ]
