(* Variational quantum eigensolver for molecular hydrogen — the chemistry
   workload the paper's introduction motivates (Kandala et al., Peruzzo
   et al.). A two-qubit H2 Hamiltonian (Bravyi-Kitaev reduced, STO-3G,
   R = 0.74 A; representative coefficient set — the exact ground energy of
   this Hamiltonian is computed in-code for comparison):

     H = g0*I + g1*Z0 + g2*Z1 + g3*Z0Z1 + g4*X0X1 + g5*Y0Y1

   The ansatz |psi(theta)> = exp(-i theta X0 Y1) |01> is compiled and
   executed on the noisy device models; each Hamiltonian term is measured
   with its own basis-rotation circuit, and expectations come from output
   distributions (with readout-error mitigation). Sweeping theta traces
   the energy curve; the minimum approximates the ground-state energy.

   Run with: dune exec examples/vqe_chemistry.exe *)

let g0 = -0.4804
let g1 = 0.3435
let g2 = -0.4347
let g3 = 0.5716
let g4 = 0.0910
let g5 = 0.0910

open Ir.Gate

(* exp(-i theta X0 Y1) |01> via basis-changed ZZ rotation. *)
let ansatz theta =
  [
    One (X, 1);
    (* X on q0 -> H conjugation; Y on q1 -> Rx(pi/2) conjugation. *)
    One (H, 0);
    One (Rx (Float.pi /. 2.0), 1);
    Two (Cnot, 0, 1);
    One (Rz (2.0 *. theta), 1);
    Two (Cnot, 0, 1);
    One (H, 0);
    One (Rx (-.Float.pi /. 2.0), 1);
  ]

(* Measurement bases: Z-basis directly; X via H; Y via Sdg,H. *)
let measurement_circuit theta basis =
  let rotation =
    match basis with
    | `Z -> []
    | `X -> [ One (H, 0); One (H, 1) ]
    | `Y -> [ One (Sdg, 0); One (H, 0); One (Sdg, 1); One (H, 1) ]
  in
  Ir.Circuit.measure_all (Ir.Circuit.create 2 (ansatz theta @ rotation)) [ 0; 1 ]

let expectations ?(mitigate = true) machine theta =
  (* One run per measurement basis; expectations from parity. *)
  let run basis =
    let circuit = measurement_circuit theta basis in
    let compiled =
      Triq.Pipeline.compile_level machine circuit ~level:Triq.Pipeline.OneQOptCN
    in
    (* A dummy deterministic spec is not available (superposition output);
       run against the ideal distribution of this measurement circuit. *)
    let spec =
      Ir.Spec.distribution [ 0; 1 ]
        (Sim.Runner.ideal_distribution (Ir.Circuit.body circuit) ~measured:[ 0; 1 ])
    in
    let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:400 ()) compiled spec in
    if mitigate then begin
      let noise = Sim.Noise.of_day machine ~day:compiled.Triq.Compiled.day in
      let flip = Sim.Binding.flips (Sim.Binding.make compiled ~measured:[ 0; 1 ]) noise in
      Sim.Mitigation.correct ~flip outcome.Sim.Runner.distribution
    end
    else outcome.Sim.Runner.distribution
  in
  let z_dist = run `Z in
  let x_dist = run `X in
  let y_dist = run `Y in
  let parity = Sim.Dist.parity_expectation in
  ( parity z_dist [ 0 ],
    parity z_dist [ 1 ],
    parity z_dist [ 0; 1 ],
    parity x_dist [ 0; 1 ],
    parity y_dist [ 0; 1 ] )

let energy ?mitigate machine theta =
  let z0, z1, zz, xx, yy = expectations ?mitigate machine theta in
  g0 +. (g1 *. z0) +. (g2 *. z1) +. (g3 *. zz) +. (g4 *. xx) +. (g5 *. yy)

let ideal_energy theta =
  let state p =
    Sim.Runner.ideal_distribution
      (Ir.Circuit.create 2 (ansatz theta @ p))
      ~measured:[ 0; 1 ]
  in
  let z = state [] in
  let x = state [ One (H, 0); One (H, 1) ] in
  let y = state [ One (Sdg, 0); One (H, 0); One (Sdg, 1); One (H, 1) ] in
  let parity = Sim.Dist.parity_expectation in
  g0
  +. (g1 *. parity z [ 0 ])
  +. (g2 *. parity z [ 1 ])
  +. (g3 *. parity z [ 0; 1 ])
  +. (g4 *. parity x [ 0; 1 ])
  +. (g5 *. parity y [ 0; 1 ])

let () =
  let machine = Device.Machines.umdti in
  Printf.printf "H2 VQE on %s (R = 0.74 A)\n\n" machine.Device.Machine.name;
  Printf.printf "%8s %12s %12s %12s\n" "theta" "ideal" "noisy" "mitigated";
  let thetas = List.init 17 (fun i -> -0.2 +. (0.125 *. float_of_int i)) in
  let results =
    List.map
      (fun theta ->
        let ideal = ideal_energy theta in
        let noisy = energy ~mitigate:false machine theta in
        let mitigated = energy ~mitigate:true machine theta in
        Printf.printf "%8.3f %12.4f %12.4f %12.4f\n" theta ideal noisy mitigated;
        (theta, ideal, mitigated))
      thetas
  in
  let best (t0, e0) (t, e) = if e < e0 then (t, e) else (t0, e0) in
  let t_ideal, e_ideal =
    List.fold_left (fun acc (t, e, _) -> best acc (t, e)) (0.0, infinity) results
  in
  let t_noisy, e_noisy =
    List.fold_left (fun acc (t, _, e) -> best acc (t, e)) (0.0, infinity) results
  in
  Printf.printf
    "\nGround state: ideal %.4f Ha at theta=%.3f; measured (mitigated) %.4f Ha at theta=%.3f\n"
    e_ideal t_ideal e_noisy t_noisy;
  (* Exact ground energy of the single-excitation block the ansatz spans:
     diagonalize [[a, c]; [c, b]] with a = E(|01>), b = E(|10>),
     c = g4 + g5. *)
  let a = g0 -. g3 +. g1 -. g2 in
  let b = g0 -. g3 -. g1 +. g2 in
  let c = g4 +. g5 in
  let exact = ((a +. b) /. 2.0) -. sqrt ((((a -. b) /. 2.0) ** 2.0) +. (c *. c)) in
  Printf.printf "Exact ground energy of this Hamiltonian block: %.4f Ha.\n" exact
