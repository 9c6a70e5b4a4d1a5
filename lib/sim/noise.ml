module Machine = Device.Machine
module Calibration = Device.Calibration
module Gateset = Device.Gateset
module Rng = Mathkit.Rng

type t = { machine : Machine.t; calibration : Calibration.t }

let of_day machine ~day = { machine; calibration = Machine.calibration machine ~day }

(* Fold gate infidelity with decoherence over the gate's duration:
   p = 1 - (1 - err) * exp(-duration / T). For the trapped-ion machine the
   second factor is negligible (T = 1.5s); for superconducting machines it
   adds the coherence-limit contribution the paper discusses. With
   [explicit_t1] the decoherence is a relaxation channel of its own, so
   the calibrated error stands alone. *)
let fold ~explicit_t1 profile err duration =
  if explicit_t1 then err
  else 1.0 -. ((1.0 -. err) *. exp (-.duration /. profile.Calibration.coherence_us))

let error_prob t ~explicit_t1 (g : Ir.Gate.t) =
  let profile = t.machine.Machine.profile in
  match g with
  | One (k, q) ->
    if Gateset.is_error_free t.machine.Machine.basis k then 0.0
    else
      fold ~explicit_t1 profile
        (Calibration.one_q_err t.calibration q)
        profile.Calibration.one_q_time_us
  | Two (_, a, b) ->
    fold ~explicit_t1 profile
      (Calibration.two_q_err t.calibration a b)
      profile.Calibration.two_q_time_us
  | Measure _ -> 0.0
  | Ccx _ | Cswap _ -> invalid_arg "Noise.error_prob: not hardware-level"

let gate_error_prob t g = error_prob t ~explicit_t1:false g

let relaxation_gamma t (g : Ir.Gate.t) =
  let profile = t.machine.Machine.profile in
  let duration =
    match g with
    | One (k, _) ->
      if Gateset.is_error_free t.machine.Machine.basis k then 0.0
      else profile.Calibration.one_q_time_us
    | Two _ -> profile.Calibration.two_q_time_us
    | Measure _ -> 0.0
    | Ccx _ | Cswap _ -> invalid_arg "Noise.relaxation_gamma: not hardware-level"
  in
  if duration = 0.0 then 0.0
  else 1.0 -. exp (-.duration /. profile.Calibration.coherence_us)

let readout_flip_prob t q = Calibration.readout_err t.calibration q

(* A 2Q error draws a non-identity Pauli pair by rejection, returned
   as [4 * pa + pb] (0 = I, then X, Y, Z). *)
let rec draw_two rng =
  let pa = Rng.int rng 4 and pb = Rng.int rng 4 in
  if pa = 0 && pb = 0 then draw_two rng else (4 * pa) + pb

let draw_error rng (g : Ir.Gate.t) =
  match g with
  | One _ -> 4 * (1 + Rng.int rng 3)
  | Two _ -> draw_two rng
  | Measure _ | Ccx _ | Cswap _ -> invalid_arg "Noise.draw_error: not a 1Q or 2Q gate"

(* [pauli.(p).(q)] is the dense kernel of X, Y or Z on qubit [q], built
   once for every qubit a statevector can hold. *)
let pauli =
  Array.map
    (fun kind ->
      let m = Ir.Matrices.one_q kind in
      Array.init Statevector.max_qubits (fun q -> Statevector.Kernel.dense_one m q))
    [| Ir.Gate.X; Ir.Gate.Y; Ir.Gate.Z |]

let apply_error state code qs =
  let pa = code lsr 2 and pb = code land 3 in
  if pa > 0 then Statevector.apply state pauli.(pa - 1).(qs.(0));
  if pb > 0 then Statevector.apply state pauli.(pb - 1).(qs.(1))
