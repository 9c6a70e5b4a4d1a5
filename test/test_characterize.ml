(* Characterization tests: the fitting primitives, and the key closure
   property — benchmarking the simulated device recovers the error rates
   injected from calibration data. *)

module Fit = Characterize.Fit
module Rb = Characterize.Benchmarking
module Machines = Device.Machines
module Machine = Device.Machine

(* ---------- Fit ---------- *)

let test_fit_linear_exact () =
  let a, b = Fit.linear [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 a;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 b

let test_fit_linear_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "one point" true (raises (fun () -> Fit.linear [ (1.0, 1.0) ]));
  Alcotest.(check bool) "degenerate x" true
    (raises (fun () -> Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]))

let test_fit_exponential_exact () =
  let points = List.init 6 (fun i -> (float_of_int i, 2.0 *. (0.9 ** float_of_int i))) in
  let p, a = Fit.exponential_decay points in
  Alcotest.(check (float 1e-9)) "decay" 0.9 p;
  Alcotest.(check (float 1e-9)) "amplitude" 2.0 a

let test_fit_exponential_drops_nonpositive () =
  let points = [ (0.0, 1.0); (1.0, 0.5); (2.0, -0.1); (3.0, 0.125) ] in
  let p, _ = Fit.exponential_decay points in
  Alcotest.(check (float 1e-6)) "decay 0.5" 0.5 p

let test_fit_r_squared () =
  let points = List.init 5 (fun i -> (float_of_int i, 3.0 +. (2.0 *. float_of_int i))) in
  Alcotest.(check (float 1e-9)) "perfect" 1.0
    (Fit.r_squared points (fun x -> 3.0 +. (2.0 *. x)));
  Alcotest.(check bool) "bad model" true
    (Fit.r_squared points (fun _ -> 0.0) < 0.0)

(* ---------- Randomized benchmarking recovers injected errors ---------- *)

let relative_error recovered injected = Float.abs (recovered -. injected) /. injected

let test_rb_one_qubit_recovers () =
  List.iter
    (fun machine ->
      let noise = Sim.Noise.of_day machine ~day:0 in
      let injected = Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, 0)) in
      let result = Rb.one_qubit machine ~day:0 ~qubit:0 in
      let err = relative_error result.Rb.error_per_gate injected in
      if err > 0.15 then
        Alcotest.failf "%s: recovered %.5f vs injected %.5f" machine.Machine.name
          result.Rb.error_per_gate injected;
      Alcotest.(check bool)
        (machine.Machine.name ^ " good fit")
        true
        (result.Rb.r_squared > 0.98))
    [ Machines.ibmq14; Machines.agave; Machines.umdti ]

let test_rb_two_qubit_recovers () =
  List.iter
    (fun (machine, a, b) ->
      let noise = Sim.Noise.of_day machine ~day:0 in
      let injected = Sim.Noise.gate_error_prob noise (Ir.Gate.Two (Ir.Gate.Cnot, a, b)) in
      let result = Rb.two_qubit machine ~day:0 ~a ~b in
      let err = relative_error result.Rb.error_per_gate injected in
      if err > 0.15 then
        Alcotest.failf "%s %d-%d: recovered %.5f vs injected %.5f"
          machine.Machine.name a b result.Rb.error_per_gate injected)
    [ (Machines.ibmq14, 1, 0); (Machines.agave, 0, 1); (Machines.umdti, 0, 3) ]

let test_rb_distinguishes_good_and_bad_qubits () =
  (* Benchmarking different qubits of IBMQ14 must reproduce their spatial
     ordering from the calibration. *)
  let machine = Machines.ibmq14 in
  let noise = Sim.Noise.of_day machine ~day:0 in
  let injected q = Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, q)) in
  let recovered q = (Rb.one_qubit machine ~day:0 ~qubit:q).Rb.error_per_gate in
  let qubits = [ 0; 3; 7; 11 ] in
  let inj = List.map injected qubits and rec_ = List.map recovered qubits in
  let order l = List.map fst (List.sort (fun (_, a) (_, b) -> Float.compare a b)
                                (List.mapi (fun i x -> (i, x)) l)) in
  Alcotest.(check (list int)) "same quality ordering" (order inj) (order rec_)

let test_irb_recovers_gate_error () =
  List.iter
    (fun (machine, a, b) ->
      let noise = Sim.Noise.of_day machine ~day:0 in
      let injected =
        Sim.Noise.gate_error_prob noise (Ir.Gate.Two (Ir.Gate.Cnot, a, b))
      in
      let irb = Rb.interleaved_two_qubit machine ~day:0 ~a ~b in
      let err = relative_error irb.Rb.gate_error injected in
      (* IRB extraction is first-order; allow 30% relative slack. *)
      if err > 0.3 then
        Alcotest.failf "%s: irb %.5f vs injected %.5f" machine.Machine.name
          irb.Rb.gate_error injected;
      (* The interleaved curve must decay at least as fast as the
         reference. *)
      Alcotest.(check bool) "interleaved decays faster" true
        (irb.Rb.interleaved.Rb.decay <= irb.Rb.reference.Rb.decay +. 1e-9))
    [ (Machines.ibmq14, 1, 0); (Machines.umdti, 0, 1) ]

let test_rb_decay_monotone_in_error () =
  (* Noisier machines decay faster. *)
  let decay machine = (Rb.two_qubit machine ~day:0 ~a:0 ~b:1).Rb.decay in
  Alcotest.(check bool) "agave decays faster than umdti" true
    (decay Machines.agave < decay Machines.umdti)

let test_readout_recovers () =
  List.iter
    (fun machine ->
      let calibration = Machine.calibration machine ~day:0 in
      let injected = Device.Calibration.readout_err calibration 0 in
      let r = Rb.readout machine ~day:0 ~qubit:0 in
      (* The |0> side measures the flip probability exactly; the |1> side
         adds preparation error, so the average sits slightly above. *)
      Alcotest.(check (float 1e-12)) "p(1|0)" injected r.Rb.p_read1_given0;
      Alcotest.(check bool) "average above injected" true (r.Rb.error >= injected -. 1e-12);
      if (r.Rb.error -. injected) /. injected > 0.5 then
        Alcotest.failf "%s: readout estimate %.4f too far above %.4f"
          machine.Machine.name r.Rb.error injected)
    [ Machines.ibmq5; Machines.agave; Machines.umdti ]

let () =
  Alcotest.run "characterize"
    [
      ( "fit",
        [
          Alcotest.test_case "linear" `Quick test_fit_linear_exact;
          Alcotest.test_case "linear validation" `Quick test_fit_linear_validation;
          Alcotest.test_case "exponential" `Quick test_fit_exponential_exact;
          Alcotest.test_case "nonpositive dropped" `Quick
            test_fit_exponential_drops_nonpositive;
          Alcotest.test_case "r squared" `Quick test_fit_r_squared;
        ] );
      ( "benchmarking",
        [
          Alcotest.test_case "1q recovery" `Quick test_rb_one_qubit_recovers;
          Alcotest.test_case "2q recovery" `Quick test_rb_two_qubit_recovers;
          Alcotest.test_case "spatial ordering" `Quick
            test_rb_distinguishes_good_and_bad_qubits;
          Alcotest.test_case "noise ordering" `Quick test_rb_decay_monotone_in_error;
          Alcotest.test_case "interleaved rb" `Quick test_irb_recovers_gate_error;
          Alcotest.test_case "readout" `Quick test_readout_recovers;
        ] );
    ]
