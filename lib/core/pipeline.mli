(** The complete TriQ toolflow (Figure 4) and its optimization levels
    (Table 1).

    - [N]: default (identity) qubit mapping, naive gate-by-gate
      translation to the software-visible set;
    - [OneQOpt]: adds quaternion-based 1Q coalescing;
    - [OneQOptC]: adds communication-optimized mapping and routing over a
      reliability matrix built from device-average error rates
      (noise-unaware);
    - [OneQOptCN]: reliability matrix built from the day's calibration
      data (noise-aware mapping and routing).

    All levels route through the topology, repair CNOT orientation on
    directed machines, and emit only software-visible gates.

    The toolflow itself is implemented as first-class passes in {!Pass};
    this module is the stable entry point: {!compile_level} runs a
    level's named schedule under a {!Pass.Config.t},
    {!compile_schedule} runs any {!Pass.Schedule.t}. *)

type level = Pass.level = N | OneQOpt | OneQOptC | OneQOptCN

val all_levels : level list
val level_name : level -> string

(** Case-insensitive; accepts short ("1qoptcn") and display
    ("TriQ-1QOptCN") forms. *)
val level_of_string : string -> level option

(** The accepted level spellings, for error messages. *)
val level_strings : string list

(** A compiled executable plus compilation metadata. *)
type t = {
  machine : Device.Machine.t;
  level : level;
  day : int;  (** calibration day compiled against *)
  hardware : Ir.Circuit.t;  (** software-visible gates on hardware qubits *)
  initial_placement : int array;
  final_placement : int array;
  readout_map : (int * int) list;
      (** measured program qubit -> hardware qubit holding it at readout *)
  swap_count : int;
  two_q_count : int;  (** hardware 2Q operations after all expansion *)
  pulse_count : int;  (** physical X/Y pulses (Figure 8's metric) *)
  flipped_cnots : int;  (** CNOTs reoriented for directed couplings *)
  esp : float;  (** estimated success probability under the calibration *)
  layout : Layout.Report.t option;
      (** the mapping pass's structured layout report — strategy, work
          counters, optimality and cache status ([None] for the identity
          mapping of levels N/1QOpt) *)
  compile_time_s : float;
  pass_times_s : (string * float) list;
      (** per-pass wall time keyed by {!Pass.t} canonical names, in
          schedule order (Section 6.5's compile-time attribution) *)
}

(** [compile_level ?config machine circuit ~level] runs the level's
    named schedule on a program circuit (which may contain
    Toffoli/Fredkin etc.; it is flattened first) under [config] (default
    {!Pass.Config.default}): [level] selects {!Pass.Schedule.of_level}
    and the config's [day]/[layout]/[router]/[peephole]/[validate]
    knobs apply exactly as documented on {!Pass.Config.t}.

    Raises [Invalid_argument] if the program has more qubits than the
    machine. *)
val compile_level :
  ?config:Pass.Config.t -> Device.Machine.t -> Ir.Circuit.t -> level:level -> t

(** [compile_schedule ?config machine circuit schedule] runs an arbitrary
    pass schedule (e.g. one edited with {!Pass.Schedule.disable} or built
    by {!Pass.Schedule.make}) under [config] (default
    {!Pass.Config.default}) and packages the final pass state as a
    result. *)
val compile_schedule :
  ?config:Pass.Config.t -> Device.Machine.t -> Ir.Circuit.t -> Pass.Schedule.t -> t

(** [to_compiled t] is the generic executable view shared with the
    baseline compilers and consumed by the simulator runner. *)
val to_compiled : t -> Compiled.t

(** [estimated_success_probability machine calibration c] multiplies the
    per-gate success probabilities of a hardware-level, software-visible
    circuit: 2Q gates and readout use calibrated errors, 1Q pulses use the
    qubit's 1Q error, virtual-Z gates are free. *)
val estimated_success_probability :
  Device.Machine.t -> Device.Calibration.t -> Ir.Circuit.t -> float
