(* Simulator tests: statevector correctness against known states and the
   matrix backend, noise model behaviour, and runner end-to-end checks. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Mat = Ir.Matrices
module M = Mathkit.Matrix
module Rng = Mathkit.Rng
module Machines = Device.Machines
module Sv = Sim.Statevector
module Noise = Sim.Noise
module Runner = Sim.Runner
module Pipeline = Triq.Pipeline

let circuit n gates = Circuit.create n gates

(* ---------- Statevector ---------- *)

let test_sv_init () =
  let s = Sv.init 3 in
  Alcotest.(check (float 1e-12)) "all mass on 0" 1.0 (Sv.probability s 0);
  Alcotest.(check (float 1e-12)) "norm" 1.0 (Sv.norm2 s)

let test_sv_x_flips () =
  let s = Sv.init 2 in
  Sv.apply_one s (Mat.one_q G.X) 0;
  (* Qubit 0 is the high bit: |00> -> |10> = index 2. *)
  Alcotest.(check (float 1e-12)) "index 2" 1.0 (Sv.probability s 2)

let test_sv_h_superposition () =
  let s = Sv.init 1 in
  Sv.apply_one s (Mat.one_q G.H) 0;
  Alcotest.(check (float 1e-12)) "p0" 0.5 (Sv.probability s 0);
  Alcotest.(check (float 1e-12)) "p1" 0.5 (Sv.probability s 1)

let test_sv_bell () =
  let s = Sv.run (circuit 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ]) in
  Alcotest.(check (float 1e-12)) "p00" 0.5 (Sv.probability s 0);
  Alcotest.(check (float 1e-12)) "p11" 0.5 (Sv.probability s 3);
  Alcotest.(check (float 1e-12)) "p01" 0.0 (Sv.probability s 1)

let test_sv_matches_matrix_backend () =
  (* Random circuits: the statevector result must equal the column of the
     full unitary. *)
  let rng = Rng.create 41 in
  for _ = 1 to 25 do
    let n = 3 in
    let kinds = [| G.H; G.X; G.T; G.S; G.Rx 0.7; G.Ry 0.3; G.Rz 1.1 |] in
    let len = 1 + Rng.int rng 12 in
    let gates =
      List.init len (fun _ ->
          if Rng.bool rng 0.3 then begin
            let a = Rng.int rng n in
            let b = (a + 1 + Rng.int rng (n - 1)) mod n in
            G.Two (G.Cnot, a, b)
          end
          else G.One (kinds.(Rng.int rng 7), Rng.int rng n))
    in
    let c = circuit n gates in
    let u = Mat.circuit_unitary c in
    let s = Sv.run c in
    for i = 0 to (1 lsl n) - 1 do
      let expected = M.get u i 0 in
      if not (Mathkit.Cplx.approx ~eps:1e-9 expected (Sv.amplitude s i)) then
        Alcotest.fail "statevector disagrees with matrix backend"
    done
  done

let test_sv_two_q_arbitrary_pair () =
  (* Apply CNOT on a non-adjacent, reversed pair and compare backends. *)
  let c = circuit 3 [ G.One (G.H, 2); G.Two (G.Cnot, 2, 0) ] in
  let u = Mat.circuit_unitary c in
  let s = Sv.run c in
  for i = 0 to 7 do
    if not (Mathkit.Cplx.approx ~eps:1e-12 (M.get u i 0) (Sv.amplitude s i)) then
      Alcotest.failf "mismatch at %d" i
  done

let test_sv_norm_preserved () =
  let s = Sv.run (circuit 4 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 3); G.One (G.T, 3) ]) in
  Alcotest.(check (float 1e-9)) "unit norm" 1.0 (Sv.norm2 s)

let test_sv_sample_distribution () =
  let s = Sv.run (circuit 1 [ G.One (G.H, 0) ]) in
  let rng = Rng.create 7 in
  let draw = Sv.sampler s in
  let ones = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if draw rng = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  if Float.abs (frac -. 0.5) > 0.02 then Alcotest.failf "biased sampling: %f" frac

let test_sv_rejects_measure () =
  let s = Sv.init 1 in
  Alcotest.(check bool) "raises" true
    (try Sv.apply_gate s (G.Measure 0); false with Invalid_argument _ -> true)

(* Adversarial CDF boundary cases: a draw must never select a bucket with
   zero probability, no matter where it lands in the cumulative table. *)
let test_sv_cdf_boundaries () =
  (* |1>: the zero-mass bucket 0 ends exactly at cumulative 0.0, so a
     draw of 0.0 sits on the edge. *)
  let table = [| 0.0; 1.0 |] in
  Alcotest.(check int) "target 0.0 skips zero-mass prefix" 1
    (Sv.cdf_index table 0.0);
  Alcotest.(check int) "interior draw" 1 (Sv.cdf_index table 0.5);
  (* Interior edge: draw lands exactly on a cumulative boundary followed
     by a zero-mass bucket. *)
  let table = [| 0.5; 0.5; 1.0 |] in
  Alcotest.(check int) "edge draw skips zero-mass bucket" 2
    (Sv.cdf_index table 0.5);
  Alcotest.(check int) "just below edge" 0 (Sv.cdf_index table 0.49);
  (* Rounding can make the scaled draw equal (or exceed) the table's
     total; trailing zero-mass buckets must be walked back over. *)
  let table = [| 0.25; 1.0; 1.0; 1.0 |] in
  Alcotest.(check int) "target = total lands on last massive bucket" 1
    (Sv.cdf_index table 1.0);
  Alcotest.(check int) "target past total" 1 (Sv.cdf_index table 1.1);
  (* Total < 1 from float rounding: a draw in the lost tail must still
     map to the last bucket that carries mass. *)
  let table = [| 0.3; 0.999999999 |] in
  Alcotest.(check int) "short table, tail draw" 1
    (Sv.cdf_index table 0.9999999995)

let test_sv_sampler_never_impossible () =
  (* End-to-end: state |1> has probability 0 of reading 0; the old [>=]
     lookup returned outcome 0 whenever the RNG drew exactly 0.0. *)
  let s = Sv.run (circuit 1 [ G.One (G.X, 0) ]) in
  let draw = Sv.sampler s in
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    Alcotest.(check int) "only |1> possible" 1 (draw rng)
  done;
  (* Bell-pair marginal: outcomes 01 and 10 carry no mass. *)
  let s = Sv.run (circuit 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ]) in
  let draw = Sv.sampler s in
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let o = draw rng in
    if o = 1 || o = 2 then Alcotest.failf "impossible outcome %d sampled" o
  done

(* ---------- Noise ---------- *)

let noise_for machine = Noise.create machine (Device.Machine.calibration machine ~day:0)

let test_noise_virtual_z_free () =
  let n = noise_for Machines.ibmq5 in
  Alcotest.(check (float 1e-12)) "U1 free" 0.0
    (Noise.gate_error_prob n (G.One (G.U1 0.3, 0)));
  Alcotest.(check bool) "U3 costs" true
    (Noise.gate_error_prob n (G.One (G.U3 (0.3, 0.1, 0.2), 0)) > 0.0)

let test_noise_two_q_dominates () =
  let n = noise_for Machines.ibmq14 in
  let one = Noise.gate_error_prob n (G.One (G.U3 (0.3, 0.1, 0.2), 1)) in
  let two = Noise.gate_error_prob n (G.Two (G.Cnot, 1, 0)) in
  Alcotest.(check bool) "2q error > 1q error" true (two > one)

let test_noise_readout_positive () =
  let n = noise_for Machines.agave in
  for q = 0 to 3 do
    Alcotest.(check bool) "positive" true (Noise.readout_flip_prob n q > 0.0)
  done

let test_noise_umd_low () =
  let sc = noise_for Machines.ibmq14 in
  let ion = noise_for Machines.umdti in
  let sc_2q = Noise.gate_error_prob sc (G.Two (G.Cnot, 1, 0)) in
  let ion_2q = Noise.gate_error_prob ion (G.Two (G.Xx (Float.pi /. 4.0), 0, 1)) in
  Alcotest.(check bool) "ion trap lower 2q error" true (ion_2q < sc_2q)

let test_noise_inject_flips_state () =
  (* With error probability forced high via a machine with bad gates, the
     injection path must report errors and keep the state normalized. *)
  let machine = Machines.agave in
  let n = noise_for machine in
  let rng = Rng.create 3 in
  let state = Sv.init 2 in
  let injected = ref 0 in
  for _ = 1 to 200 do
    if Noise.inject n rng (G.Two (G.Cz, 0, 1)) state ~qubit_of:(fun q -> q) then
      incr injected
  done;
  Alcotest.(check bool) "some errors injected" true (!injected > 0);
  Alcotest.(check (float 1e-6)) "still normalized" 1.0 (Sv.norm2 state)

(* ---------- Runner ---------- *)

let bell_program =
  Circuit.measure_all (circuit 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ]) [ 0; 1 ]

let bell_spec = Ir.Spec.distribution [ 0; 1 ] [ ("00", 0.5); ("11", 0.5) ]

let test_runner_rejects_degenerate_params () =
  let compiled =
    Pipeline.compile_level Machines.ibmq5 bell_program ~level:Pipeline.OneQOptCN
  in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  (* trajectories=0 used to divide the averaged distribution by zero and
     return all-NaN outcomes. *)
  Alcotest.(check bool) "trajectories=0 rejected" true
    (raises (fun () -> Runner.simulate ~config:(Runner.Config.make ~trajectories:0 ()) compiled bell_spec));
  Alcotest.(check bool) "trials=0 rejected" true
    (raises (fun () -> Runner.simulate ~config:(Runner.Config.make ~trials:0 ()) compiled bell_spec))

let test_runner_bell_on_umd () =
  let compiled = Pipeline.compile_level Machines.umdti bell_program ~level:Pipeline.OneQOptCN in
  let outcome = Runner.simulate compiled bell_spec in
  Alcotest.(check bool)
    (Printf.sprintf "high success (%f)" outcome.Runner.success_rate)
    true
    (outcome.Runner.success_rate > 0.9);
  Alcotest.(check int) "counts sum to trials" outcome.Runner.trials
    (List.fold_left (fun acc (_, n) -> acc + n) 0 outcome.Runner.counts)

let test_runner_deterministic () =
  let compiled = Pipeline.compile_level Machines.ibmq5 bell_program ~level:Pipeline.OneQOptCN in
  let o1 = Runner.simulate ~config:(Runner.Config.make ~seed:5 ()) compiled bell_spec in
  let o2 = Runner.simulate ~config:(Runner.Config.make ~seed:5 ()) compiled bell_spec in
  Alcotest.(check (float 1e-12)) "same seed, same result" o1.Runner.success_rate
    o2.Runner.success_rate

let test_runner_noise_hurts () =
  (* Success on a noisy machine must be below the ideal 1.0 but above
     chance for a short circuit. *)
  let x_program = Circuit.measure_all (circuit 1 [ G.One (G.X, 0) ]) [ 0 ] in
  let spec = Ir.Spec.deterministic [ 0 ] "1" in
  let compiled = Pipeline.compile_level Machines.agave x_program ~level:Pipeline.OneQOptCN in
  let outcome = Runner.simulate compiled spec in
  Alcotest.(check bool) "below perfect" true (outcome.Runner.success_rate < 1.0);
  Alcotest.(check bool) "above chance" true (outcome.Runner.success_rate > 0.6)

let test_runner_ideal_distribution () =
  let dist = Runner.ideal_distribution (Circuit.body bell_program) ~measured:[ 0; 1 ] in
  Alcotest.(check int) "two outcomes" 2 (List.length dist);
  List.iter
    (fun (bits, p) ->
      if bits <> "00" && bits <> "11" then Alcotest.failf "unexpected %s" bits;
      Alcotest.(check (float 1e-9)) "half" 0.5 p)
    dist

let test_runner_readout_order () =
  (* Measure in reversed order: bitstring must follow the measured list. *)
  let c = Circuit.measure_all (circuit 2 [ G.One (G.X, 0) ]) [ 0; 1 ] in
  let dist_fwd = Runner.ideal_distribution (Circuit.body c) ~measured:[ 0; 1 ] in
  let dist_rev = Runner.ideal_distribution (Circuit.body c) ~measured:[ 1; 0 ] in
  Alcotest.(check string) "forward" "10" (fst (List.hd dist_fwd));
  Alcotest.(check string) "reversed" "01" (fst (List.hd dist_rev))

let test_runner_better_esp_better_success () =
  (* Same program, same machine: the noise-aware compilation should not do
     materially worse than the naive one. *)
  let program = Bench_kit.Programs.(bv 4) in
  let naive = Pipeline.compile_level Machines.ibmq14 program.Bench_kit.Programs.circuit ~level:Pipeline.N in
  let smart =
    Pipeline.compile_level Machines.ibmq14 program.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let spec = program.Bench_kit.Programs.spec in
  let o_naive = Runner.simulate naive spec in
  let o_smart = Runner.simulate smart spec in
  Alcotest.(check bool)
    (Printf.sprintf "smart %.3f >= naive %.3f - 0.05" o_smart.Runner.success_rate
       o_naive.Runner.success_rate)
    true
    (o_smart.Runner.success_rate >= o_naive.Runner.success_rate -. 0.05)

let test_runner_sampled_counts () =
  let compiled = Pipeline.compile_level Machines.umdti bell_program ~level:Pipeline.OneQOptCN in
  let o =
    Runner.simulate ~config:(Runner.Config.make ~seed:9 ~sample_counts:true ()) compiled bell_spec
  in
  Alcotest.(check int) "counts sum to trials" o.Runner.trials
    (List.fold_left (fun acc (_, n) -> acc + n) 0 o.Runner.counts);
  (* Sampled counts fluctuate around the distribution but stay close. *)
  let p00 =
    float_of_int (Option.value ~default:0 (List.assoc_opt "00" o.Runner.counts))
    /. float_of_int o.Runner.trials
  in
  Alcotest.(check bool) (Printf.sprintf "p00 %.3f near 0.5" p00) true
    (Float.abs (p00 -. 0.5) < 0.05);
  (* Different seeds produce different samples. *)
  let o2 =
    Runner.simulate ~config:(Runner.Config.make ~seed:10 ~sample_counts:true ()) compiled bell_spec
  in
  Alcotest.(check bool) "seeds differ" true (o.Runner.counts <> o2.Runner.counts)

(* ---------- Mitigation ---------- *)

let test_mitigation_inverts_exactly () =
  (* Corrupting then correcting with the same flips is the identity. *)
  let flip = [| 0.1; 0.05 |] in
  let clean = [ ("00", 0.7); ("11", 0.3) ] in
  let as_vector dist =
    let v = Array.make 4 0.0 in
    List.iter
      (fun (bits, p) ->
        let idx = String.fold_left (fun a c -> (a lsl 1) lor (if c = '1' then 1 else 0)) 0 bits in
        v.(idx) <- p)
      dist;
    v
  in
  let corrupted = Sim.Dist.corrupt_readout (as_vector clean) flip in
  let recovered = Sim.Mitigation.correct ~flip (Sim.Dist.to_strings corrupted) in
  List.iter
    (fun (bits, expected) ->
      let got = Option.value ~default:0.0 (List.assoc_opt bits recovered) in
      Alcotest.(check (float 1e-9)) bits expected got)
    clean

let test_mitigation_validation () =
  Alcotest.(check bool) "flip >= 0.5 rejected" true
    (try ignore (Sim.Mitigation.correct ~flip:[| 0.6 |] [ ("0", 1.0) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "length mismatch" true
    (try ignore (Sim.Mitigation.correct ~flip:[| 0.1 |] [ ("00", 1.0) ]); false
     with Invalid_argument _ -> true)

let test_mitigation_improves_success () =
  (* On a readout-heavy machine, mitigation must raise measured success. *)
  let p = Bench_kit.Programs.toffoli in
  let compiled =
    Pipeline.compile_level Machines.agave p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let raw, mitigated =
    Sim.Mitigation.mitigated_success ~trajectories:300 compiled
      p.Bench_kit.Programs.spec
  in
  Alcotest.(check bool)
    (Printf.sprintf "mitigated %.3f > raw %.3f" mitigated raw)
    true (mitigated > raw)

let test_parity_expectation () =
  let dist = [ ("00", 0.5); ("11", 0.5) ] in
  Alcotest.(check (float 1e-12)) "even parity" 1.0
    (Sim.Dist.parity_expectation dist [ 0; 1 ]);
  Alcotest.(check (float 1e-12)) "single bit balanced" 0.0
    (Sim.Dist.parity_expectation dist [ 0 ]);
  let dist2 = [ ("01", 1.0) ] in
  Alcotest.(check (float 1e-12)) "odd parity" (-1.0)
    (Sim.Dist.parity_expectation dist2 [ 0; 1 ])

(* ---------- qcheck ---------- *)

let dist_gen m =
  QCheck.Gen.(
    map
      (fun weights ->
        let total = List.fold_left ( +. ) 0.0 weights in
        List.mapi
          (fun idx w ->
            let bits =
              String.init m (fun i -> if (idx lsr (m - 1 - i)) land 1 = 1 then '1' else '0')
            in
            (bits, w /. total))
          weights)
      (list_repeat (1 lsl m) (float_range 0.01 1.0)))

let prop_mitigation_roundtrip =
  QCheck.Test.make ~count:200 ~name:"corrupt then mitigate is identity"
    (QCheck.make
       QCheck.Gen.(pair (dist_gen 3) (list_repeat 3 (float_range 0.0 0.35))))
    (fun (clean, flips) ->
      let flip = Array.of_list flips in
      let v = Array.make 8 0.0 in
      List.iter
        (fun (bits, p) ->
          let idx =
            String.fold_left (fun a c -> (a lsl 1) lor (if c = '1' then 1 else 0)) 0 bits
          in
          v.(idx) <- p)
        clean;
      let corrupted = Sim.Dist.corrupt_readout v flip in
      let recovered = Sim.Mitigation.correct ~flip (Sim.Dist.to_strings corrupted) in
      Sim.Dist.total_variation clean recovered < 1e-6)

let prop_corrupt_preserves_normalization =
  QCheck.Test.make ~count:200 ~name:"readout corruption preserves total probability"
    (QCheck.make
       QCheck.Gen.(pair (dist_gen 3) (list_repeat 3 (float_range 0.0 0.49))))
    (fun (clean, flips) ->
      let flip = Array.of_list flips in
      let v = Array.make 8 0.0 in
      List.iter
        (fun (bits, p) ->
          let idx =
            String.fold_left (fun a c -> (a lsl 1) lor (if c = '1' then 1 else 0)) 0 bits
          in
          v.(idx) <- p)
        clean;
      let corrupted = Sim.Dist.corrupt_readout v flip in
      Float.abs (Array.fold_left ( +. ) 0.0 corrupted -. 1.0) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mitigation_roundtrip; prop_corrupt_preserves_normalization ]

(* ---------- Stabilizer backend & fusion ---------- *)

module Stab = Sim.Stabilizer
module Fusion = Sim.Fusion

(* Seeded random Clifford gate streams (plain list — the proptest
   generators are exercised separately by the clifford fuzz oracle). *)
let random_clifford_gates rng n len =
  List.init len (fun _ ->
      if n >= 2 && Rng.bool rng 0.45 then begin
        let a = Rng.int rng n in
        let b = (a + 1 + Rng.int rng (n - 1)) mod n in
        let k = Rng.choose rng [ G.Cnot; G.Cz; G.Swap; G.Iswap ] in
        G.Two (k, a, b)
      end
      else
        let k = Rng.choose rng [ G.X; G.Y; G.Z; G.H; G.S; G.Sdg ] in
        G.One (k, Rng.int rng n))

let l1 a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := !d +. Float.abs (x -. b.(i))) a;
  !d

let test_stab_matches_statevector () =
  (* Tableau execution must agree with the dense backend exactly:
     probabilities, and the materialized state up to global phase. *)
  let rng = Rng.create 91 in
  for _ = 1 to 40 do
    let n = 1 + Rng.int rng 4 in
    let gates = random_clifford_gates rng n (Rng.int rng 15) in
    let c = circuit n gates in
    let t = Stab.init n in
    List.iter (fun g -> assert (Stab.apply_gate t g)) gates;
    let sv = Sv.run c in
    Alcotest.(check (float 1e-9))
      "probabilities" 0.0
      (l1 (Stab.probabilities t) (Sv.probabilities sv));
    let mat = Stab.to_statevector t in
    let overlap = ref Mathkit.Cplx.zero in
    for i = 0 to (1 lsl n) - 1 do
      overlap :=
        Mathkit.Cplx.add !overlap
          (Mathkit.Cplx.mul (Mathkit.Cplx.conj (Sv.amplitude mat i))
             (Sv.amplitude sv i))
    done;
    Alcotest.(check (float 1e-9))
      "fidelity" 1.0
      (Mathkit.Cplx.abs !overlap)
  done

let test_stab_compiled_apps_match_apply_gate () =
  (* The table-compiled fast path must evolve the tableau exactly like
     the generic action path. *)
  let rng = Rng.create 17 in
  for _ = 1 to 40 do
    let n = 1 + Rng.int rng 4 in
    let gates = random_clifford_gates rng n (1 + Rng.int rng 12) in
    let slow = Stab.init n and fast = Stab.init n in
    List.iter
      (fun g ->
        assert (Stab.apply_gate slow g);
        let act = Option.get (Dataflow.Tableau.Action.of_gate g) in
        let qs = Array.of_list (G.qubits g) in
        Stab.apply_app fast (Stab.compile_action act qs))
      gates;
    Alcotest.(check (float 1e-12))
      "same distribution" 0.0
      (l1 (Stab.probabilities slow) (Stab.probabilities fast))
  done

let test_stab_readout_sign_flips () =
  (* The frozen-readout sign-flip path — propagate a mid-circuit Pauli
     to the end as a mask, land it as row sign flips — must match the
     dense simulation that applies the error explicitly. *)
  let rng = Rng.create 29 in
  for _ = 1 to 60 do
    let n = 1 + Rng.int rng 4 in
    let len = 1 + Rng.int rng 12 in
    let gates = random_clifford_gates rng n len in
    let apps =
      List.map
        (fun g ->
          let act = Option.get (Dataflow.Tableau.Action.of_gate g) in
          Stab.compile_action act (Array.of_list (G.qubits g)))
        gates
    in
    let t = Stab.init n in
    List.iter2 (fun _ app -> Stab.apply_app t app) gates apps;
    let r = Stab.readout t in
    (* Inject a random Pauli after gate [pos]. *)
    let pos = Rng.int rng len in
    let q = Rng.int rng n in
    let p = Rng.int rng 3 in
    (* Dense reference: replay with the explicit error. *)
    let sv = Sv.init n in
    List.iteri
      (fun i g ->
        Sv.apply_gate sv g;
        if i = pos then
          let k = match p with 0 -> G.X | 1 -> G.Y | _ -> G.Z in
          Sv.apply_one sv (Mat.one_q k) q)
      gates;
    (* Sign-flip path: conjugate the Pauli mask through the tail. *)
    let xm = ref (if p = 2 then 0 else 1 lsl q) in
    let zm = ref (if p = 0 then 0 else 1 lsl q) in
    List.iteri
      (fun i app ->
        if i > pos then begin
          let x, z = Stab.conjugate_masks app ~xm:!xm ~zm:!zm in
          xm := x;
          zm := z
        end)
      apps;
    let flips = Stab.flip_mask r ~xm:!xm in
    Alcotest.(check (float 1e-9))
      "erred distribution" 0.0
      (l1 (Stab.readout_probabilities r ~flips) (Sv.probabilities sv));
    Alcotest.(check (float 1e-12))
      "clean distribution" 0.0
      (l1 (Stab.readout_probabilities r ~flips:0) (Stab.probabilities t))
  done

let test_fusion_matches_unfused () =
  (* A fused plan must reproduce the gate-by-gate amplitudes exactly —
     fusion only reorders commuting work. Mixed Clifford/non-Clifford
     streams exercise 1Q-run merging, diagonal batching and the
     permutation kernels. *)
  let rng = Rng.create 53 in
  for _ = 1 to 40 do
    let n = 1 + Rng.int rng 4 in
    let len = Rng.int rng 16 in
    let gates =
      List.init len (fun _ ->
          if n >= 2 && Rng.bool rng 0.4 then begin
            let a = Rng.int rng n in
            let b = (a + 1 + Rng.int rng (n - 1)) mod n in
            let k = Rng.choose rng [ G.Cnot; G.Cz; G.Swap; G.Iswap; G.Xx 0.42 ] in
            G.Two (k, a, b)
          end
          else
            let k =
              Rng.choose rng
                [ G.H; G.X; G.S; G.T; G.Rz 0.9; G.Rx 0.31; G.U1 1.7 ]
            in
            G.One (k, Rng.int rng n))
    in
    let members =
      Array.of_list
        (List.mapi
           (fun i g ->
             let m =
               match g with
               | G.One (k, _) -> Mat.one_q k
               | G.Two (k, _, _) -> Mat.two_q k
               | _ -> assert false
             in
             { Fusion.idx = i; gate = g; matrix = m })
           gates)
    in
    let fused = Sv.init n in
    Fusion.run_clean fused (Fusion.plan ~n members);
    let plain = Sv.run (circuit n gates) in
    for i = 0 to (1 lsl n) - 1 do
      if
        not
          (Mathkit.Cplx.approx ~eps:1e-9 (Sv.amplitude plain i)
             (Sv.amplitude fused i))
      then Alcotest.fail "fused amplitudes diverge from unfused"
    done
  done

let test_runner_backends_agree () =
  (* End to end: forcing each backend on a compiled Clifford benchmark
     must reproduce the Auto dispatch (same seed => same error draws;
     the tiny gap absorbs the report's 1e-6 truncation). *)
  let p = Bench_kit.Programs.bv 4 in
  let compiled =
    Pipeline.compile_level Machines.ibmq5 p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let run backend fusion =
    Runner.simulate
      ~config:
        (Runner.Config.make ~seed:5 ~trials:400 ~trajectories:50 ~backend
           ~fusion ())
      compiled p.Bench_kit.Programs.spec
  in
  let auto = run Runner.Config.Auto true in
  let sv = run Runner.Config.Statevector false in
  let stab = run Runner.Config.Stabilizer false in
  let gap a b =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
    let g =
      List.fold_left
        (fun acc (k, v) ->
          let w = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
          Hashtbl.remove tbl k;
          Float.max acc (Float.abs (v -. w)))
        0.0 b
    in
    (* entries of [a] that [b] lacks *)
    Hashtbl.fold (fun _ v acc -> Float.max acc v) tbl g
  in
  if gap auto.Runner.distribution sv.Runner.distribution > 2e-6 then
    Alcotest.fail "auto dispatch diverges from forced statevector";
  if gap auto.Runner.distribution stab.Runner.distribution > 2e-6 then
    Alcotest.fail "auto dispatch diverges from forced stabilizer";
  Alcotest.(check (float 2e-6))
    "success rates" sv.Runner.success_rate auto.Runner.success_rate

let () =
  Alcotest.run "sim"
    [
      ( "statevector",
        [
          Alcotest.test_case "init" `Quick test_sv_init;
          Alcotest.test_case "x flips" `Quick test_sv_x_flips;
          Alcotest.test_case "h superposition" `Quick test_sv_h_superposition;
          Alcotest.test_case "bell" `Quick test_sv_bell;
          Alcotest.test_case "matches matrix backend" `Quick
            test_sv_matches_matrix_backend;
          Alcotest.test_case "arbitrary pair" `Quick test_sv_two_q_arbitrary_pair;
          Alcotest.test_case "norm preserved" `Quick test_sv_norm_preserved;
          Alcotest.test_case "sampling" `Quick test_sv_sample_distribution;
          Alcotest.test_case "rejects measure" `Quick test_sv_rejects_measure;
          Alcotest.test_case "cdf boundaries" `Quick test_sv_cdf_boundaries;
          Alcotest.test_case "no impossible outcomes" `Quick
            test_sv_sampler_never_impossible;
        ] );
      ( "noise",
        [
          Alcotest.test_case "virtual z free" `Quick test_noise_virtual_z_free;
          Alcotest.test_case "2q dominates" `Quick test_noise_two_q_dominates;
          Alcotest.test_case "readout positive" `Quick test_noise_readout_positive;
          Alcotest.test_case "umd low error" `Quick test_noise_umd_low;
          Alcotest.test_case "injection" `Quick test_noise_inject_flips_state;
        ] );
      ( "mitigation",
        [
          Alcotest.test_case "exact inversion" `Quick test_mitigation_inverts_exactly;
          Alcotest.test_case "validation" `Quick test_mitigation_validation;
          Alcotest.test_case "improves success" `Quick test_mitigation_improves_success;
          Alcotest.test_case "parity expectation" `Quick test_parity_expectation;
        ] );
      ("properties", qcheck_cases);
      ( "runner",
        [
          Alcotest.test_case "rejects degenerate params" `Quick
            test_runner_rejects_degenerate_params;
          Alcotest.test_case "bell on umd" `Quick test_runner_bell_on_umd;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "noise hurts" `Quick test_runner_noise_hurts;
          Alcotest.test_case "ideal distribution" `Quick test_runner_ideal_distribution;
          Alcotest.test_case "readout order" `Quick test_runner_readout_order;
          Alcotest.test_case "esp ordering" `Quick test_runner_better_esp_better_success;
          Alcotest.test_case "sampled counts" `Quick test_runner_sampled_counts;
        ] );
      ( "stabilizer",
        [
          Alcotest.test_case "matches statevector" `Quick
            test_stab_matches_statevector;
          Alcotest.test_case "compiled apps" `Quick
            test_stab_compiled_apps_match_apply_gate;
          Alcotest.test_case "readout sign flips" `Quick
            test_stab_readout_sign_flips;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "matches unfused" `Quick test_fusion_matches_unfused;
        ] );
      ( "backends",
        [
          Alcotest.test_case "agree end to end" `Quick test_runner_backends_agree;
        ] );
    ]
