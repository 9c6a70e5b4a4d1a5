module Rng = Mathkit.Rng
module Machine = Device.Machine

type result = {
  decay : float;
  error_per_gate : float;
  r_squared : float;
  points : (float * float) list;
}

let default_lengths = [ 1; 2; 4; 8; 16; 32 ]

(* Survival of a 1-qubit basis state under the uniform X/Y/Z error channel
   decays toward 1/2 with per-gate factor lambda = 1 - 4e/3; for the
   15-Pauli two-qubit channel it decays toward 1/4 with
   lambda = 1 - 16e/15. Normalizing the deviation linearizes the fit. *)
let one_q_error_of_decay lambda = 3.0 *. (1.0 -. lambda) /. 4.0
let two_q_error_of_decay lambda = 15.0 *. (1.0 -. lambda) /. 16.0

let fit points error_of_decay =
  let decay, amplitude = Fit.exponential_decay points in
  {
    decay;
    error_per_gate = error_of_decay decay;
    r_squared = Fit.r_squared points (fun x -> amplitude *. (decay ** x));
    points;
  }

let one_qubit ?(seed = 11) ?(lengths = default_lengths) ?(samples = 3) machine ~day
    ~qubit =
  let calibration = Machine.calibration machine ~day in
  let noise = Sim.Noise.create machine calibration in
  let rng = Rng.create seed in
  let survival m =
    (* m self-inverting pairs: 2m gates, net identity. *)
    let acc = ref 0.0 in
    for _ = 1 to samples do
      let rho = Sim.Density.init 1 in
      for _ = 1 to m do
        let kind = if Rng.bool rng 0.5 then Ir.Gate.X else Ir.Gate.Y in
        for _ = 1 to 2 do
          Sim.Density.apply_one rho (Ir.Matrices.one_q kind) 0;
          let p = Sim.Noise.gate_error_prob noise (Ir.Gate.One (kind, qubit)) in
          if p > 0.0 then Sim.Density.depolarize_one rho p 0
        done
      done;
      acc := !acc +. (Sim.Density.populations rho).(0)
    done;
    !acc /. float_of_int samples
  in
  let points =
    List.map
      (fun m ->
        let s = survival m in
        (float_of_int (2 * m), 2.0 *. (s -. 0.5)))
      lengths
  in
  fit points one_q_error_of_decay

let two_qubit ?(seed = 13) ?(lengths = default_lengths) ?(samples = 3) machine ~day ~a
    ~b =
  let calibration = Machine.calibration machine ~day in
  let noise = Sim.Noise.create machine calibration in
  let rng = Rng.create seed in
  let gate = Ir.Gate.Two (Ir.Gate.Cnot, a, b) in
  let p = Sim.Noise.gate_error_prob noise gate in
  let survival m =
    let acc = ref 0.0 in
    for _ = 1 to samples do
      let rho = Sim.Density.init 2 in
      for _ = 1 to m do
        (* A same-orientation CNOT pair is the identity; the orientation
           is drawn per pair. *)
        let swap = Rng.bool rng 0.5 in
        for _ = 1 to 2 do
          let u = Ir.Matrices.two_q Ir.Gate.Cnot in
          if swap then Sim.Density.apply_two rho u 1 0
          else Sim.Density.apply_two rho u 0 1;
          if p > 0.0 then Sim.Density.depolarize_two rho p 0 1
        done
      done;
      acc := !acc +. (Sim.Density.populations rho).(0)
    done;
    !acc /. float_of_int samples
  in
  let points =
    List.map
      (fun m ->
        let s = survival m in
        (float_of_int (2 * m), (s -. 0.25) /. 0.75))
      lengths
  in
  fit points two_q_error_of_decay

type interleaved = { reference : result; interleaved : result; gate_error : float }

let interleaved_two_qubit ?(seed = 17) ?(lengths = default_lengths) ?(samples = 3)
    machine ~day ~a ~b =
  let calibration = Machine.calibration machine ~day in
  let noise = Sim.Noise.create machine calibration in
  let p_one q =
    Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, q))
  in
  let p_two = Sim.Noise.gate_error_prob noise (Ir.Gate.Two (Ir.Gate.Cnot, a, b)) in
  let run ~with_gate seed0 =
    let rng = Rng.create seed0 in
    let survival m =
      let acc = ref 0.0 in
      for _ = 1 to samples do
        let rho = Sim.Density.init 2 in
        for _ = 1 to m do
          (* Reference step: a self-inverting 1Q pair on each qubit. *)
          List.iteri
            (fun idx q ->
              let kind = if Rng.bool rng 0.5 then Ir.Gate.X else Ir.Gate.Y in
              let pq = if idx = 0 then p_one a else p_one b in
              for _ = 1 to 2 do
                Sim.Density.apply_one rho (Ir.Matrices.one_q kind) q;
                if pq > 0.0 then Sim.Density.depolarize_one rho pq q
              done)
            [ 0; 1 ];
          if with_gate then
            (* Interleave a self-inverting CNOT pair. *)
            for _ = 1 to 2 do
              Sim.Density.apply_two rho (Ir.Matrices.two_q Ir.Gate.Cnot) 0 1;
              if p_two > 0.0 then Sim.Density.depolarize_two rho p_two 0 1
            done
        done;
        acc := !acc +. (Sim.Density.populations rho).(0)
      done;
      !acc /. float_of_int samples
    in
    let points =
      List.map
        (fun m -> (float_of_int m, (survival m -. 0.25) /. 0.75))
        lengths
    in
    fit points (fun _ -> 0.0)
  in
  let reference = run ~with_gate:false seed in
  let interleaved = run ~with_gate:true (seed + 1) in
  (* Per step the interleaved curve adds two CNOT channels:
     lambda_int = lambda_ref * lambda_cnot^2. *)
  let ratio = interleaved.decay /. reference.decay in
  let lambda_cnot = sqrt (Float.max ratio 0.0) in
  let gate_error = two_q_error_of_decay lambda_cnot in
  { reference; interleaved; gate_error }

type readout = { p_read1_given0 : float; p_read0_given1 : float; error : float }

let readout machine ~day ~qubit =
  let calibration = Machine.calibration machine ~day in
  let noise = Sim.Noise.create machine calibration in
  let flip = Sim.Noise.readout_flip_prob noise qubit in
  (* Prepare |0>: nothing to do; read 1 with the flip probability. *)
  let p_read1_given0 = flip in
  (* Prepare |1>: an X pulse that can itself fail (uniform Pauli: 2/3 of
     failures leave the population wrong), then read 0 on flip. *)
  let p_x = Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, qubit)) in
  let rho = Sim.Density.init 1 in
  Sim.Density.apply_one rho (Ir.Matrices.one_q Ir.Gate.X) 0;
  if p_x > 0.0 then Sim.Density.depolarize_one rho p_x 0;
  let pops = Sim.Density.populations rho in
  let p_read0_given1 = (pops.(0) *. (1.0 -. flip)) +. (pops.(1) *. flip) in
  { p_read1_given0; p_read0_given1; error = (p_read1_given0 +. p_read0_given1) /. 2.0 }
