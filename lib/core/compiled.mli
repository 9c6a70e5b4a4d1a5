(** A compiled executable: the one output record of every compiler in
    the study (the four TriQ levels and the vendor-baseline
    reimplementations), built by {!Pipeline.compile_schedule} and consumed
    by the emitters, the simulator runner and the experiment harness. *)

type t = {
  machine : Device.Machine.t;
  compiler : string;  (** display name, e.g. "TriQ-1QOptCN", "Qiskit" *)
  day : int;  (** calibration day compiled against *)
  hardware : Ir.Circuit.t;  (** software-visible gates on hardware qubits *)
  initial_placement : int array;
  final_placement : int array;
  readout_map : (int * int) list;
      (** measured program qubit -> hardware qubit at readout *)
  swap_count : int;
  two_q_count : int;
  pulse_count : int;  (** physical X/Y pulses (Figure 8's metric) *)
  flipped_cnots : int;
  esp : float;  (** estimated success probability under the calibration *)
  layout : Layout.Report.t option;
      (** the mapping pass's structured layout report — strategy, work
          counters, optimality and cache status ([None] when the schedule
          placed qubits without the layout engine) *)
  compile_time_s : float;  (** wall clock of the driver's [compile] span *)
  pass_times_s : (string * float) list;
      (** per-pass wall time keyed by {!Pass.t} canonical names, in
          schedule order (Section 6.5's compile-time attribution) *)
}

(** [estimated_success_probability machine calibration c] multiplies the
    per-gate success probabilities of a hardware-level, software-visible
    circuit: 2Q gates and readout use calibrated errors, 1Q pulses the
    qubit's 1Q error; virtual-Z gates are free. *)
val estimated_success_probability :
  Device.Machine.t -> Device.Calibration.t -> Ir.Circuit.t -> float

(** Where the success probability goes: per-category survival products of
    a hardware circuit under a calibration. [two_q *. one_q *. readout]
    equals the ESP. *)
type error_budget = {
  two_q : float;  (** product of 2Q gate success probabilities *)
  one_q : float;  (** product of 1Q pulse success probabilities *)
  readout : float;  (** product of readout success probabilities *)
}

(** [error_budget machine calibration c] decomposes the ESP of a
    software-visible hardware circuit. *)
val error_budget :
  Device.Machine.t -> Device.Calibration.t -> Ir.Circuit.t -> error_budget

(** [budget_of t] is the decomposition for a compiled executable at its
    own calibration day. *)
val budget_of : t -> error_budget
