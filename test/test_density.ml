(* Density-matrix backend tests: channel algebra, agreement with the pure
   statevector on noiseless circuits, and — the key check — quantitative
   agreement between the exact runner and the Monte-Carlo trajectory
   runner under the same noise model. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Machines = Device.Machines
module Pipeline = Triq.Pipeline
module Density = Sim.Density
module Sv = Sim.Statevector

let circuit n gates = Circuit.create n gates

(* ---------- State algebra ---------- *)

let test_density_init () =
  let rho = Density.init 2 in
  Alcotest.(check (float 1e-12)) "trace" 1.0 (Density.trace rho);
  Alcotest.(check (float 1e-12)) "pure" 1.0 (Density.purity rho);
  Alcotest.(check (float 1e-12)) "all mass on 00" 1.0 (Density.populations rho).(0)

let test_density_matches_statevector () =
  (* Noiseless evolution must equal |psi><psi| of the statevector run. *)
  let c =
    circuit 3
      [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.One (G.T, 2); G.Two (G.Cz, 1, 2);
        G.One (G.Rx 0.7, 0) ]
  in
  let sv = Sv.run c in
  let rho = Density.init 3 in
  List.iter (Density.apply_gate rho) c.Circuit.gates;
  let pops = Density.populations rho in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "population %d" i)
      (Sv.probability sv i) pops.(i)
  done;
  Alcotest.(check (float 1e-9)) "still pure" 1.0 (Density.purity rho)

let test_density_unitarity_preserves_trace () =
  let rho = Density.init 2 in
  Density.apply_gate rho (G.One (G.H, 0));
  Density.apply_gate rho (G.Two (G.Cnot, 0, 1));
  Alcotest.(check (float 1e-12)) "trace" 1.0 (Density.trace rho)

(* ---------- Channels ---------- *)

let test_depolarize_full_mixes () =
  (* p = 1 one-qubit depolarizing on |0> gives populations 2/3 * .. :
     rho -> 1/3 (X rho X + Y rho Y + Z rho Z); on |0><0| that is
     1/3 (|1><1| + |1><1| + |0><0|) = diag(1/3, 2/3). *)
  let rho = Density.init 1 in
  Density.depolarize_one rho 1.0 0;
  let pops = Density.populations rho in
  Alcotest.(check (float 1e-9)) "p0" (1.0 /. 3.0) pops.(0);
  Alcotest.(check (float 1e-9)) "p1" (2.0 /. 3.0) pops.(1);
  Alcotest.(check (float 1e-9)) "trace kept" 1.0 (Density.trace rho)

let test_depolarize_reduces_purity () =
  let rho = Density.init 2 in
  Density.apply_gate rho (G.One (G.H, 0));
  Density.depolarize_one rho 0.2 0;
  let purity = Density.purity rho in
  Alcotest.(check bool) (Printf.sprintf "purity %f < 1" purity) true (purity < 0.999);
  Alcotest.(check (float 1e-9)) "trace kept" 1.0 (Density.trace rho)

let test_dephase_kills_coherence_not_populations () =
  let rho = Density.init 1 in
  Density.apply_gate rho (G.One (G.H, 0));
  Density.dephase rho 0.5 0;
  (* Full dephasing at p = 1/2 gives the maximally mixed diagonal. *)
  let pops = Density.populations rho in
  Alcotest.(check (float 1e-9)) "p0" 0.5 pops.(0);
  Alcotest.(check (float 1e-9)) "p1" 0.5 pops.(1);
  Alcotest.(check (float 1e-9)) "fully mixed" 0.5 (Density.purity rho)

let test_amplitude_damping () =
  (* gamma = 1 relaxes |1> to |0> completely. *)
  let rho = Density.init 1 in
  Density.apply_gate rho (G.One (G.X, 0));
  Density.amplitude_damp rho 1.0 0;
  Alcotest.(check (float 1e-9)) "relaxed" 1.0 (Density.populations rho).(0);
  (* Partial damping moves the right amount of population. *)
  let rho = Density.init 1 in
  Density.apply_gate rho (G.One (G.X, 0));
  Density.amplitude_damp rho 0.3 0;
  Alcotest.(check (float 1e-9)) "partial" 0.3 (Density.populations rho).(0);
  Alcotest.(check (float 1e-9)) "trace kept" 1.0 (Density.trace rho)

let test_two_q_depolarize_trace () =
  let rho = Density.init 2 in
  Density.apply_gate rho (G.One (G.H, 0));
  Density.apply_gate rho (G.Two (G.Cnot, 0, 1));
  Density.depolarize_two rho 0.15 0 1;
  Alcotest.(check (float 1e-9)) "trace" 1.0 (Density.trace rho);
  Alcotest.(check bool) "mixed" true (Density.purity rho < 1.0)

let test_channel_probability_validation () =
  let rho = Density.init 1 in
  Alcotest.(check bool) "p > 1 rejected" true
    (try Density.depolarize_one rho 1.5 0; false with Invalid_argument _ -> true)

(* ---------- Exact runner vs Monte-Carlo runner ---------- *)

let cross_validate name machine (p : Bench_kit.Programs.t) =
  let compiled =
    Pipeline.compile_level machine p.Bench_kit.Programs.circuit ~level:Pipeline.OneQOptCN
  in
  let exact = Sim.Density_runner.run compiled p.Bench_kit.Programs.spec in
  let sampled =
    Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:3000 ()) compiled p.Bench_kit.Programs.spec
  in
  let diff = Float.abs (exact.Sim.Density_runner.success_rate -. sampled.Sim.Runner.success_rate) in
  if diff > 0.03 then
    Alcotest.failf "%s: exact %.4f vs sampled %.4f (diff %.4f)" name
      exact.Sim.Density_runner.success_rate sampled.Sim.Runner.success_rate diff

let test_runner_cross_validation_umd () =
  cross_validate "toffoli/umdti" Machines.umdti Bench_kit.Programs.toffoli;
  cross_validate "hs4/umdti" Machines.umdti (Bench_kit.Programs.hidden_shift 4)

let test_runner_cross_validation_ibm () =
  cross_validate "bv4/ibmq5" Machines.ibmq5 (Bench_kit.Programs.bv 4);
  cross_validate "peres/ibmq5" Machines.ibmq5 Bench_kit.Programs.peres

let test_runner_cross_validation_rigetti () =
  cross_validate "hs2/agave" Machines.agave (Bench_kit.Programs.hidden_shift 2)

let test_dist_metrics () =
  let a = [ ("00", 0.5); ("11", 0.5) ] in
  Alcotest.(check (float 1e-12)) "identical tvd" 0.0 (Sim.Dist.total_variation a a);
  Alcotest.(check (float 1e-12)) "identical hellinger" 0.0 (Sim.Dist.hellinger a a);
  let b = [ ("01", 1.0) ] in
  Alcotest.(check (float 1e-12)) "disjoint tvd" 1.0 (Sim.Dist.total_variation a b);
  Alcotest.(check (float 1e-9)) "disjoint hellinger" 1.0 (Sim.Dist.hellinger a b);
  let c = [ ("00", 0.75); ("11", 0.25) ] in
  Alcotest.(check (float 1e-12)) "partial tvd" 0.25 (Sim.Dist.total_variation a c)

let test_full_distribution_cross_validation () =
  (* Beyond matching success rates, the sampled and exact output
     distributions must be close in total variation. *)
  List.iter
    (fun (machine, (p : Bench_kit.Programs.t)) ->
      let compiled =
        Pipeline.compile_level machine p.Bench_kit.Programs.circuit
          ~level:Pipeline.OneQOptCN
      in
      let exact = Sim.Density_runner.run compiled p.Bench_kit.Programs.spec in
      let sampled =
        Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:3000 ()) compiled p.Bench_kit.Programs.spec
      in
      let tvd =
        Sim.Dist.total_variation exact.Sim.Density_runner.distribution
          sampled.Sim.Runner.distribution
      in
      if tvd > 0.04 then
        Alcotest.failf "%s/%s: tvd %.4f" machine.Device.Machine.name
          p.Bench_kit.Programs.name tvd)
    [
      (Machines.umdti, Bench_kit.Programs.toffoli);
      (Machines.ibmq5, Bench_kit.Programs.bv 4);
      (Machines.agave, Bench_kit.Programs.hidden_shift 2);
    ]

let test_exact_distribution_sums_to_one () =
  let p = Bench_kit.Programs.toffoli in
  let compiled =
    Pipeline.compile_level Machines.umdti p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let exact = Sim.Density_runner.run compiled p.Bench_kit.Programs.spec in
  let total =
    List.fold_left (fun acc (_, pr) -> acc +. pr) 0.0 exact.Sim.Density_runner.distribution
  in
  Alcotest.(check (float 1e-3)) "normalized" 1.0 total;
  Alcotest.(check bool) "purity sane" true
    (exact.Sim.Density_runner.purity <= 1.0 +. 1e-9
    && exact.Sim.Density_runner.purity > 0.0)

let test_t1_mode_cross_validation () =
  (* With explicit relaxation, trajectory sampling (quantum jumps) must
     agree with the exact Kraus evolution. *)
  List.iter
    (fun (machine, (p : Bench_kit.Programs.t)) ->
      let compiled =
        Pipeline.compile_level machine p.Bench_kit.Programs.circuit
          ~level:Pipeline.OneQOptCN
      in
      let exact =
        Sim.Density_runner.run ~explicit_t1:true compiled p.Bench_kit.Programs.spec
      in
      let sampled =
        Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~explicit_t1:true ~trajectories:3000 ()) compiled
          p.Bench_kit.Programs.spec
      in
      let diff =
        Float.abs
          (exact.Sim.Density_runner.success_rate -. sampled.Sim.Runner.success_rate)
      in
      if diff > 0.03 then
        Alcotest.failf "%s/%s (t1): exact %.4f vs sampled %.4f"
          machine.Device.Machine.name p.Bench_kit.Programs.name
          exact.Sim.Density_runner.success_rate sampled.Sim.Runner.success_rate)
    [ (Machines.ibmq5, Bench_kit.Programs.bv 4); (Machines.agave, Bench_kit.Programs.hidden_shift 2) ]

let test_t1_relaxation_behaviour () =
  (* A jump drives toward |0>: preparing |1> and relaxing fully must
     land on |0>. *)
  let rng = Mathkit.Rng.create 4 in
  let s = Sim.Statevector.init 1 in
  Sim.Statevector.apply_one s (Ir.Matrices.one_q Ir.Gate.X) 0;
  Alcotest.(check (float 1e-12)) "excited" 1.0 (Sim.Statevector.excited_population s 0);
  let jumped = Sim.Statevector.relax s 0 ~gamma:1.0 rng in
  Alcotest.(check bool) "jumped" true jumped;
  Alcotest.(check (float 1e-12)) "relaxed" 0.0 (Sim.Statevector.excited_population s 0);
  Alcotest.(check (float 1e-9)) "normalized" 1.0 (Sim.Statevector.norm2 s);
  (* Quantum-jump average matches the channel: relax |1> many times at
     gamma = 0.3 and average the excited population. *)
  let acc = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    let s = Sim.Statevector.init 1 in
    Sim.Statevector.apply_one s (Ir.Matrices.one_q Ir.Gate.X) 0;
    ignore (Sim.Statevector.relax s 0 ~gamma:0.3 rng);
    acc := !acc +. Sim.Statevector.excited_population s 0
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 0.7) > 0.01 then Alcotest.failf "jump average %.4f" mean

let test_t1_model_choice_similar () =
  (* The folded-depolarizing approximation and the explicit channel agree
     on success to within a few points (the model ablation's claim). *)
  let p = Bench_kit.Programs.bv 4 in
  let compiled =
    Pipeline.compile_level Machines.ibmq5 p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let folded = (Sim.Density_runner.run compiled p.Bench_kit.Programs.spec).Sim.Density_runner.success_rate in
  let explicit =
    (Sim.Density_runner.run ~explicit_t1:true compiled p.Bench_kit.Programs.spec)
      .Sim.Density_runner.success_rate
  in
  if Float.abs (folded -. explicit) > 0.08 then
    Alcotest.failf "models diverge: folded %.3f vs explicit %.3f" folded explicit

let test_exact_runner_rejects_large () =
  let p = Bench_kit.Programs.bv 8 in
  let compiled =
    Pipeline.compile_level Machines.ibmq16 p.Bench_kit.Programs.circuit
      ~level:Pipeline.N
  in
  (* BV8 at level N touches many qubits through swap chains; if it exceeds
     the exact-backend limit the runner must refuse rather than blow up. *)
  match Sim.Density_runner.run compiled p.Bench_kit.Programs.spec with
  | _ -> ()
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "density"
    [
      ( "state",
        [
          Alcotest.test_case "init" `Quick test_density_init;
          Alcotest.test_case "matches statevector" `Quick test_density_matches_statevector;
          Alcotest.test_case "trace preserved" `Quick test_density_unitarity_preserves_trace;
        ] );
      ( "channels",
        [
          Alcotest.test_case "full depolarize" `Quick test_depolarize_full_mixes;
          Alcotest.test_case "purity drops" `Quick test_depolarize_reduces_purity;
          Alcotest.test_case "dephasing" `Quick test_dephase_kills_coherence_not_populations;
          Alcotest.test_case "amplitude damping" `Quick test_amplitude_damping;
          Alcotest.test_case "2q depolarize" `Quick test_two_q_depolarize_trace;
          Alcotest.test_case "validation" `Quick test_channel_probability_validation;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "umd" `Slow test_runner_cross_validation_umd;
          Alcotest.test_case "ibm" `Slow test_runner_cross_validation_ibm;
          Alcotest.test_case "rigetti" `Slow test_runner_cross_validation_rigetti;
          Alcotest.test_case "dist metrics" `Quick test_dist_metrics;
          Alcotest.test_case "full distribution" `Slow test_full_distribution_cross_validation;
          Alcotest.test_case "normalization" `Quick test_exact_distribution_sums_to_one;
          Alcotest.test_case "size guard" `Quick test_exact_runner_rejects_large;
          Alcotest.test_case "t1 cross-validation" `Slow test_t1_mode_cross_validation;
          Alcotest.test_case "t1 jump behaviour" `Quick test_t1_relaxation_behaviour;
          Alcotest.test_case "t1 model ablation" `Quick test_t1_model_choice_similar;
        ] );
    ]
