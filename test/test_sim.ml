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
  (* On a machine with bad gates, 200 CZs drawn at their error
     probability must err sometimes, and the drawn Pauli errors must
     keep the state normalized. *)
  let machine = Machines.agave in
  let n = noise_for machine in
  let rng = Rng.create 3 in
  let state = Sv.init 2 in
  let cz = G.Two (G.Cz, 0, 1) in
  let p = Noise.gate_error_prob n cz in
  let injected = ref 0 in
  for _ = 1 to 200 do
    Sv.apply_gate state cz;
    if Rng.bool rng p then begin
      Noise.apply_error state (Noise.draw_error rng cz) [| 0; 1 |];
      incr injected
    end
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
  let trajectories () =
    match List.assoc_opt "sim.trajectories" (Obs.Metrics.dump ()) with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "sim.trajectories is not a registered counter"
  in
  (* Every rejection happens before any trajectory runs: no [sim.block]
     span is recorded and [sim.trajectories] does not move. *)
  let rejected name compiled spec config =
    let before = trajectories () in
    Obs.Span.enable ();
    Obs.Span.reset ();
    let raised =
      Fun.protect ~finally:Obs.Span.disable (fun () ->
          raises (fun () -> Runner.simulate ~config compiled spec))
    in
    let blocks =
      List.filter
        (fun (s : Obs.Span.t) -> s.Obs.Span.name = "sim.block")
        (Obs.Span.collected ())
    in
    Obs.Span.reset ();
    Alcotest.(check bool) (name ^ " rejected") true raised;
    Alcotest.(check int) (name ^ ": no block ran") 0 (List.length blocks);
    Alcotest.(check int) (name ^ ": no trajectory counted") before (trajectories ())
  in
  let open Runner.Config in
  (* trajectories=0 used to divide the averaged distribution by zero and
     return all-NaN outcomes. *)
  rejected "trajectories=0" compiled bell_spec (make ~trajectories:0 ());
  rejected "trials=0" compiled bell_spec (make ~trials:0 ());
  (* The bell executable reads out program qubits 0 and 1 only. *)
  rejected "unmeasured spec qubit" compiled
    (Ir.Spec.distribution [ 0; 2 ] [ ("00", 1.0) ])
    (make ());
  rejected "stabilizer with explicit T1" compiled bell_spec
    (make ~backend:Stabilizer ~explicit_t1:true ());
  let toffoli = Bench_kit.Programs.toffoli in
  rejected "stabilizer on a non-Clifford circuit"
    (Pipeline.compile_level Machines.ibmq5 toffoli.Bench_kit.Programs.circuit
       ~level:Pipeline.OneQOptCN)
    toffoli.Bench_kit.Programs.spec (make ~backend:Stabilizer ());
  (* The rejections that depend on the config alone are [check]'s, so a
     front end can refuse them before it compiles. *)
  List.iter
    (fun (name, config, ok) ->
      Alcotest.(check bool) (name ^ ": check") ok (Result.is_ok (check config)))
    [
      ("default", make (), true);
      ("trajectories=0", make ~trajectories:0 (), false);
      ("trials=0", make ~trials:0 (), false);
      ("stabilizer with explicit T1", make ~backend:Stabilizer ~explicit_t1:true (), false);
    ]

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

(* The readout channel as a per-term loop: every (y0, y) pair
   multiplies its m factors onto [p0] from scratch. *)
let reference_corrupt_readout q flip =
  let m = Array.length flip in
  let out = Array.make (Array.length q) 0.0 in
  Array.iteri
    (fun y0 p0 ->
      if p0 > 0.0 then
        for y = 0 to Array.length q - 1 do
          let w = ref p0 in
          for i = 0 to m - 1 do
            let b0 = (y0 lsr (m - 1 - i)) land 1 in
            let b = (y lsr (m - 1 - i)) land 1 in
            w := !w *. (if b = b0 then 1.0 -. flip.(i) else flip.(i))
          done;
          out.(y) <- out.(y) +. !w
        done)
    q;
  out

let test_readout_channel_matches_reference () =
  (* Bit for bit, on 1 to 8 measured bits, with zero entries and flips
     of exactly 0, 0.5 and 1 among random ones; a third of these carry a
     full mantissa, so [1 - flip] rounds. *)
  let rng = Rng.create 97 in
  let cases = ref 0 in
  for m = 1 to 8 do
    for _ = 1 to if m <= 6 then 400 else 150 do
      let q =
        Array.init (1 lsl m) (fun _ ->
            match Rng.int rng 4 with 0 -> 0.0 | 1 -> -0.0 | _ -> Rng.float rng)
      in
      let flip =
        Array.init m (fun _ ->
            match Rng.int rng 5 with
            | 0 -> 0.0
            | 1 -> 0.5
            | 2 -> 1.0
            | 3 -> Rng.float rng
            | _ -> 0.2 *. Rng.float rng /. 3.0)
      in
      let got = Sim.Dist.corrupt_readout q flip in
      let want = reference_corrupt_readout q flip in
      Array.iteri
        (fun y w ->
          if Int64.bits_of_float got.(y) <> Int64.bits_of_float w then
            Alcotest.failf "m = %d, outcome %d: %h, reference %h" m y got.(y) w)
        want;
      incr cases
    done
  done;
  Alcotest.(check int) "cases" 2700 !cases

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

module Tab = Dataflow.Tableau
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
    let t = Tab.init n in
    List.iter (fun g -> assert (Tab.apply t g)) gates;
    let sv = Sv.run c in
    Alcotest.(check (float 1e-9))
      "probabilities" 0.0
      (l1 (Tab.probabilities t) (Sv.probabilities sv));
    let mat = Sv.of_tableau t in
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

let test_stab_measurement () =
  (* The measurement contract: a deterministic outcome consumes no
     randomness, a random outcome collapses the state, and entangled
     outcomes agree. *)
  let t = Tab.init 1 in
  assert (Tab.apply t (G.One (G.X, 0)));
  let rng = Rng.create 7 in
  Alcotest.(check bool) "X then measure reads 1" true (Tab.measure t 0 rng);
  Alcotest.(check int)
    "deterministic outcome draws nothing"
    (Rng.int (Rng.create 7) 1_000_000)
    (Rng.int rng 1_000_000);
  let seen = Array.make 2 false in
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let plus = Tab.init 1 in
    assert (Tab.apply plus (G.One (G.H, 0)));
    let first = Tab.measure plus 0 rng in
    seen.(Bool.to_int first) <- true;
    Alcotest.(check bool) "collapsed outcome repeats" first (Tab.measure plus 0 rng);
    let bell = Tab.init 2 in
    assert (Tab.apply bell (G.One (G.H, 0)));
    assert (Tab.apply bell (G.Two (G.Cnot, 0, 1)));
    let a = Tab.measure bell 0 rng in
    Alcotest.(check bool) "bell outcomes agree" a (Tab.measure bell 1 rng)
  done;
  Alcotest.(check bool) "|+> yields both outcomes" true (seen.(0) && seen.(1))

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
          let act = Option.get (Tab.Action.of_gate g) in
          Tab.compile_action act (Array.of_list (G.qubits g)))
        gates
    in
    let t = Tab.init n in
    List.iter2 (fun _ app -> Tab.apply_app t app) gates apps;
    let r = Tab.readout t in
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
          let x, z = Tab.conjugate_masks app ~xm:!xm ~zm:!zm in
          xm := x;
          zm := z
        end)
      apps;
    let flips = Tab.flip_mask r ~xm:!xm in
    Alcotest.(check (float 1e-9))
      "erred distribution" 0.0
      (l1 (Tab.readout_probabilities r ~flips) (Sv.probabilities sv));
    Alcotest.(check (float 1e-12))
      "clean distribution" 0.0
      (l1 (Tab.readout_probabilities r ~flips:0) (Tab.probabilities t))
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
    let members = Array.of_list (List.mapi (fun i g -> Fusion.member ~idx:i g) gates) in
    let fused = Sv.init n in
    Array.iter (Fusion.apply_step fused) (Fusion.steps (Fusion.plan ~n members));
    let plain = Sv.run (circuit n gates) in
    for i = 0 to (1 lsl n) - 1 do
      if
        not
          (Mathkit.Cplx.approx ~eps:1e-9 (Sv.amplitude plain i)
             (Sv.amplitude fused i))
      then Alcotest.fail "fused amplitudes diverge from unfused"
    done
  done

(* The kernels as they read matrices before compilation, on plain
   arrays: the 2x2 and 4x4 products take their entries through
   [Matrix.get], and the diagonal table derives its shifts per call. *)
module Reference = struct
  let apply_one n (re : float array) (im : float array) m q =
    let g r c = M.get m r c in
    let a00 = g 0 0 and a01 = g 0 1 and a10 = g 1 0 and a11 = g 1 1 in
    let stride = 1 lsl (n - 1 - q) in
    for i0 = 0 to (1 lsl n) - 1 do
      if i0 land stride = 0 then begin
        let i1 = i0 + stride in
        let xr = re.(i0) and xi = im.(i0) and yr = re.(i1) and yi = im.(i1) in
        re.(i0) <- (a00.re *. xr) -. (a00.im *. xi) +. (a01.re *. yr) -. (a01.im *. yi);
        im.(i0) <- (a00.re *. xi) +. (a00.im *. xr) +. (a01.re *. yi) +. (a01.im *. yr);
        re.(i1) <- (a10.re *. xr) -. (a10.im *. xi) +. (a11.re *. yr) -. (a11.im *. yi);
        im.(i1) <- (a10.re *. xi) +. (a10.im *. xr) +. (a11.re *. yi) +. (a11.im *. yr)
      end
    done

  let apply_two n (re : float array) (im : float array) m a b =
    let sa = 1 lsl (n - 1 - a) and sb = 1 lsl (n - 1 - b) in
    for base = 0 to (1 lsl n) - 1 do
      if base land sa = 0 && base land sb = 0 then begin
        let idx = [| base; base lor sb; base lor sa; base lor sa lor sb |] in
        let xr = Array.map (fun i -> re.(i)) idx and xi = Array.map (fun i -> im.(i)) idx in
        for r = 0 to 3 do
          let accr = ref 0.0 and acci = ref 0.0 in
          for c = 0 to 3 do
            let z = M.get m r c in
            accr := !accr +. (z.re *. xr.(c)) -. (z.im *. xi.(c));
            acci := !acci +. (z.re *. xi.(c)) +. (z.im *. xr.(c))
          done;
          re.(idx.(r)) <- !accr;
          im.(idx.(r)) <- !acci
        done
      end
    done

  let apply_diag_table n (re : float array) (im : float array) qs fr fi =
    let shifts = Array.map (fun q -> n - 1 - q) qs in
    for idx = 0 to (1 lsl n) - 1 do
      let key = ref 0 in
      Array.iter (fun s -> key := (!key lsl 1) lor ((idx lsr s) land 1)) shifts;
      let cr = fr.(!key) and ci = fi.(!key) in
      let r = re.(idx) and x = im.(idx) in
      re.(idx) <- (cr *. r) -. (ci *. x);
      im.(idx) <- (cr *. x) +. (ci *. r)
    done
end

(* A state with no zero amplitude: random U3 on every wire, then a
   chain of random XX couplings. *)
let random_state rng n =
  let s = Sv.init n in
  let angle () = (Rng.float rng -. 0.5) *. 6.0 in
  for q = 0 to n - 1 do
    Sv.apply_one s (Mat.one_q (G.U3 (angle (), angle (), angle ()))) q
  done;
  for q = 0 to n - 2 do
    Sv.apply_two s (Mat.two_q (G.Xx (angle ()))) q (q + 1)
  done;
  s

let same_bits what s re im =
  Array.iteri
    (fun i r ->
      let a = Sv.amplitude s i in
      if
        Int64.bits_of_float a.re <> Int64.bits_of_float r
        || Int64.bits_of_float a.im <> Int64.bits_of_float im.(i)
      then Alcotest.failf "%s: amplitude %d is %h%+hi, reference %h%+hi" what i a.re a.im r im.(i))
    re

let kernel_kind (k : Sv.Kernel.t) =
  match k with
  | Dense1 _ -> "dense1"
  | Diag1 _ -> "diag1"
  | Cnot _ -> "cnot"
  | Cz _ -> "cz"
  | Swap _ -> "swap"
  | Iswap _ -> "iswap"
  | Dense2 _ -> "dense2"
  | Diag_table _ -> "diag_table"

let test_kernels_match_reference () =
  (* Every compiled kernel, against the matrix-reading reference, bit
     for bit, on random states of 1 to 8 qubits. *)
  let rng = Rng.create 61 in
  let seen = Hashtbl.create 8 in
  let angle () = (Rng.float rng -. 0.5) *. 6.0 in
  for _ = 1 to 400 do
    let n = 1 + Rng.int rng 8 in
    let s = random_state rng n in
    let re = Array.init (1 lsl n) (fun i -> (Sv.amplitude s i).re) in
    let im = Array.init (1 lsl n) (fun i -> (Sv.amplitude s i).im) in
    let q = Rng.int rng n in
    let what =
      match Rng.int rng (if n >= 2 then 5 else 3) with
      | 0 ->
        let kind =
          Rng.choose rng
            [ G.H; G.X; G.Y; G.Rx (angle ()); G.Ry (angle ()); G.U3 (angle (), angle (), angle ());
              G.Z; G.S; G.T; G.Tdg; G.Rz (angle ()); G.U1 (angle ()) ]
        in
        let g = G.One (kind, q) in
        let k = (Fusion.member ~idx:0 g).kernel in
        Sv.apply s k;
        Reference.apply_one n re im (Mat.one_q kind) q;
        kernel_kind k
      | 1 ->
        (* Error Paulis go through the dense 2x2 kernel. *)
        let p = 1 + Rng.int rng 3 in
        Noise.apply_error s (4 * p) [| q |];
        Reference.apply_one n re im (Mat.one_q [| G.X; G.Y; G.Z |].(p - 1)) q;
        "error pauli"
      | 2 ->
        let k = 1 + Rng.int rng n in
        let wires = Array.init n Fun.id in
        Rng.shuffle rng wires;
        let qs = Array.sub wires 0 k in
        let fr = Array.init (1 lsl k) (fun _ -> angle ()) in
        let fi = Array.init (1 lsl k) (fun _ -> angle ()) in
        let kernel = Sv.Kernel.diag_table ~n ~qs ~fr ~fi in
        Sv.apply s kernel;
        Reference.apply_diag_table n re im qs fr fi;
        kernel_kind kernel
      | 3 ->
        let a = q and b = (q + 1 + Rng.int rng (n - 1)) mod n in
        let kind = Rng.choose rng [ G.Cnot; G.Cz; G.Swap; G.Iswap; G.Xx (angle ()) ] in
        let k = (Fusion.member ~idx:0 (G.Two (kind, a, b))).kernel in
        Sv.apply s k;
        Reference.apply_two n re im (Mat.two_q kind) a b;
        kernel_kind k
      | _ ->
        (* The matrix entry points run the same kernels. *)
        let a = q and b = (q + 1 + Rng.int rng (n - 1)) mod n in
        let m = Mat.two_q (G.Xx (angle ())) in
        Sv.apply_two s m a b;
        Reference.apply_two n re im m a b;
        "apply_two"
    in
    Hashtbl.replace seen what ();
    same_bits what s re im
  done;
  List.iter
    (fun k -> if not (Hashtbl.mem seen k) then Alcotest.failf "kernel %s never exercised" k)
    [ "dense1"; "diag1"; "cnot"; "cz"; "swap"; "iswap"; "dense2"; "diag_table"; "error pauli"; "apply_two" ]

let test_kernels_allocation_free () =
  let n = 4 in
  let s = random_state (Rng.create 3) n in
  let kernels =
    List.map
      (fun g -> (Fusion.member ~idx:0 g).kernel)
      [ G.One (G.H, 1); G.One (G.T, 2); G.Two (G.Cnot, 0, 3); G.Two (G.Cz, 1, 2);
        G.Two (G.Swap, 3, 0); G.Two (G.Iswap, 2, 1); G.Two (G.Xx 0.3, 0, 2) ]
    @ [ Sv.Kernel.diag_table ~n ~qs:[| 2; 0 |] ~fr:[| 1.0; 0.0; -1.0; 0.0 |] ~fi:[| 0.0; 1.0; 0.0; -1.0 |] ]
  in
  let kernels = Array.of_list kernels and qs = [| 0; 3 |] in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    for i = 0 to Array.length kernels - 1 do
      Sv.apply s kernels.(i)
    done;
    Noise.apply_error s 6 qs
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100.0 then Alcotest.failf "9000 kernel applications allocated %.0f minor words" words

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

(* Outcomes pinned bit for bit: [%h] of the success rate and an MD5 of
   the [%h] rendering of the full distribution, one cell per execution
   path of the trajectory sampler (stabilizer, Clifford-prefix hybrid,
   fused statevector with dense and with spaced-out checkpoints,
   unfused statevector, explicit T1, a stale calibration day,
   sampled counts and a two-domain pool). Any change to the error
   draws, their order, or the arithmetic of a kernel shows up here. *)
let pinned_cells =
  let module P = Bench_kit.Programs in
  let cfg = Runner.Config.make ~pool:(Parallel.Pool.create ~jobs:1) in
  let open Runner.Config in
  [
    ("stab", Machines.ibmq14, P.bv 6, fun () -> cfg ());
    ("stab-forced", Machines.agave, P.hidden_shift 4, fun () -> cfg ~backend:Stabilizer ());
    ("hybrid", Machines.ibmq14, P.toffoli, fun () -> cfg ());
    ("hybrid-long-prefix", Machines.agave, P.peres, fun () -> cfg ());
    ("hybrid-unfused", Machines.ibmq14, P.adder, fun () -> cfg ~fusion:false ());
    ("sv-fused", Machines.ibmq14, P.qft 4, fun () -> cfg ());
    ("sv-forced-clifford", Machines.ibmq5, P.hidden_shift 4, fun () -> cfg ~backend:Statevector ());
    ("sv-unfused", Machines.ibmq5, P.toffoli, fun () -> cfg ~fusion:false ());
    (* Twelve touched qubits leave room for 8 checkpoints over 30 fused
       steps, so erred trajectories resume from spaced-out checkpoints
       (stride 4) and replay clean steps up to their first error. *)
    ( "sv-strided",
      Machines.ibmq16,
      P.ghz 12,
      fun () -> cfg ~backend:Statevector ~trajectories:100 () );
    ("explicit-t1", Machines.ibmq5, P.peres, fun () -> cfg ~explicit_t1:true ());
    ("stale-day", Machines.umdti, P.fredkin, fun () -> cfg ~day:3 ());
    ("sampled", Machines.umdti, P.adder, fun () -> cfg ~sample_counts:true ());
    ("j2", Machines.agave, P.adder, fun () -> make ~pool:(Parallel.Pool.create ~jobs:2) ());
  ]

let pinned_expected =
  [
    ("stab", "0x1.3eep-2 84d0ef8fcd7afe442afa2f1e28afb8d1");
    ("stab-forced", "0x1.1ap-2 06f837eda428c4bc80c1d14195461f69");
    ("hybrid", "0x1.5e2p-2 f21d6a380a0b256011c9aaca39f6d1f2");
    ("hybrid-long-prefix", "0x1.f5p-4 239bbeedd2ba2dbd631593e80b66d44c");
    ("hybrid-unfused", "0x1.124p-3 9fe33f47f7f1bbcd53bf45ef3c2c2f92");
    ("sv-fused", "0x1.1ep-2 07170cb8c8ff81ef4b4f7dfae822b4ca");
    ("sv-forced-clifford", "0x1.7dap-1 32c0f9cf8580d04ef85b1708e3ee6215");
    ("sv-unfused", "0x1.5eap-1 0b21ee214568490eadadfb317ae4665b");
    ("sv-strided", "0x1.538p-2 b493e30c9ba574d7b02fb2faf2e02fca");
    ("explicit-t1", "0x1.442p-1 ca511aaf732eb590a9f1c6d3a3829d21");
    ("stale-day", "0x1.cf5p-1 7d04bd75c61731fe4ba490b1655c23b5");
    ("sampled", "0x1.94p-1 f6db413eacf09a07fcead9af54b5a377");
    ("j2", "0x1.1ep-4 4a7e8d65f9da616a629ce89140b55010");
  ]

let test_runner_pinned_outcomes () =
  let digest (o : Runner.outcome) =
    let dist =
      List.map (fun (bits, p) -> Printf.sprintf "%s:%h" bits p) o.Runner.distribution
    in
    Printf.sprintf "%h %s" o.Runner.success_rate
      (Digest.to_hex (Digest.string (String.concat ";" dist)))
  in
  let actual =
    List.map
      (fun (name, machine, (p : Bench_kit.Programs.t), config) ->
        let compiled =
          Pipeline.compile_level machine p.Bench_kit.Programs.circuit
            ~level:Pipeline.OneQOptCN
        in
        let config = config () in
        let o = Runner.simulate ~config compiled p.Bench_kit.Programs.spec in
        Option.iter Parallel.Pool.shutdown config.Runner.Config.pool;
        (name, digest o))
      pinned_cells
  in
  Alcotest.(check (list (pair string string))) "outcomes" pinned_expected actual

(* A simulate run is five stage spans under [sim.run], once each and in
   order, and [sim.plan] names the backend the dispatch picked. *)
let test_runner_stage_spans () =
  let stages = [ "sim.prepare"; "sim.plan"; "sim.execute"; "sim.readout"; "sim.score" ] in
  List.iter
    (fun (cell, backend) ->
      let _, machine, (p : Bench_kit.Programs.t), config =
        List.find (fun (name, _, _, _) -> name = cell) pinned_cells
      in
      let compiled =
        Pipeline.compile_level machine p.Bench_kit.Programs.circuit ~level:Pipeline.OneQOptCN
      in
      let config = config () in
      Obs.Span.enable ();
      Obs.Span.reset ();
      Fun.protect
        ~finally:(fun () ->
          Obs.Span.disable ();
          Option.iter Parallel.Pool.shutdown config.Runner.Config.pool)
        (fun () -> ignore (Runner.simulate ~config compiled p.Bench_kit.Programs.spec));
      let spans = Obs.Span.collected () in
      Obs.Span.reset ();
      let run =
        match List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = "sim.run") spans with
        | [ run ] -> run
        | runs -> Alcotest.failf "%s: %d sim.run spans" cell (List.length runs)
      in
      let children =
        List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.parent = Some run.Obs.Span.id) spans
      in
      Alcotest.(check (list string))
        (cell ^ " stages") stages
        (List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) children);
      let plan = List.find (fun (s : Obs.Span.t) -> s.Obs.Span.name = "sim.plan") children in
      Alcotest.(check bool)
        (cell ^ " backend " ^ backend)
        true
        (List.assoc_opt "backend" plan.Obs.Span.attrs = Some (Obs.Span.Str backend)))
    [ ("stab", "stabilizer"); ("hybrid", "hybrid"); ("sv-fused", "statevector") ]

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
          Alcotest.test_case "readout channel matches reference" `Quick
            test_readout_channel_matches_reference;
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
          Alcotest.test_case "pinned outcomes" `Quick test_runner_pinned_outcomes;
          Alcotest.test_case "stage spans" `Quick test_runner_stage_spans;
        ] );
      ( "stabilizer",
        [
          Alcotest.test_case "matches statevector" `Quick
            test_stab_matches_statevector;
          Alcotest.test_case "measurement" `Quick test_stab_measurement;
          Alcotest.test_case "readout sign flips" `Quick
            test_stab_readout_sign_flips;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "matches unfused" `Quick test_fusion_matches_unfused;
          Alcotest.test_case "kernels match reference" `Quick test_kernels_match_reference;
          Alcotest.test_case "kernels allocation-free" `Quick test_kernels_allocation_free;
        ] );
      ( "backends",
        [
          Alcotest.test_case "agree end to end" `Quick test_runner_backends_agree;
        ] );
    ]
