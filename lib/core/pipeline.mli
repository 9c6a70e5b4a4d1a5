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

    The toolflow itself is implemented as first-class passes in {!Pass}.
    {!compile_schedule} is the one compile driver: every compiler — the
    TriQ levels, the vendor baselines and the ablations — is a
    {!Pass.Schedule.t} it runs into a {!Compiled.t}. {!compile_level}
    runs a level's named schedule. *)

(** Re-export of {!Pass.level}, kept because perfbench/main.ml names it. *)
type level = Pass.level = N | OneQOpt | OneQOptC | OneQOptCN

(** {!Pass.all_levels}, kept because perfbench/main.ml names it. *)
val all_levels : level list

(** {!Compiled.t} under its old name, kept because perfbench/main.ml
    names it. *)
type t = Compiled.t = {
  machine : Device.Machine.t;
  compiler : string;
  day : int;
  hardware : Ir.Circuit.t;
  initial_placement : int array;
  final_placement : int array;
  readout_map : (int * int) list;
  swap_count : int;
  two_q_count : int;
  pulse_count : int;
  flipped_cnots : int;
  esp : float;
  layout : Layout.Report.t option;
  compile_time_s : float;
  pass_times_s : (string * float) list;
}

(** [compile_schedule ?config machine circuit schedule] runs [schedule]
    under [config] (default {!Pass.Config.default}) and packages the
    final pass state as an executable named [schedule.name].

    {!Pass.init} and every pass run inside an [Obs.Span] named
    ["compile"] (attributes: machine, schedule, day) whose duration is
    [compile_time_s]; per-pass and total times come from the same wall
    clock, so [sum pass_times_s <= compile_time_s]. Each call counts
    once in [triq.compile.count]. The ESP uses the calibration the
    passes compiled against.

    Raises [Invalid_argument] with a rendered {!Analysis.Diag}: rule
    [circuit.bounds] if the program has more qubits than the machine,
    [gate.set] or [topo.coupling] if the schedule's output is not a
    software-visible circuit on coupled pairs (a partial [--passes]
    schedule). *)
val compile_schedule :
  ?config:Pass.Config.t -> Device.Machine.t -> Ir.Circuit.t -> Pass.Schedule.t -> t

(** [compile_level ?config machine circuit ~level] is {!compile_schedule}
    on [Pass.Schedule.of_level ?config level]. The program may contain
    Toffoli/Fredkin etc.; it is flattened first. *)
val compile_level :
  ?config:Pass.Config.t -> Device.Machine.t -> Ir.Circuit.t -> level:level -> t

(** The identity, kept because perfbench/main.ml still converts with it. *)
val to_compiled : t -> Compiled.t
