(** A placement problem, abstracted over the reliability model.

    The layout engine never sees a circuit or a calibration: callers
    (normally [Triq.Placement]) lower the program's aggregated 2Q
    interaction pairs, measured qubits, and two scoring closures over
    hardware qubits into this record. Keeping the engine model-agnostic is
    what lets [lib/layout] sit below [lib/core] without a dependency
    cycle. *)

(** The optimization objective. [Max_min] is TriQ's (maximize the minimum
    reliability of any mapped operation — prunes aggressively); [Product]
    is the whole-graph reliability product of prior work, kept for the
    ablation study. *)
type objective = Max_min | Product

val objective_name : objective -> string

type t = {
  n_program : int;
  n_hardware : int;
  pairs : ((int * int) * int) list;
      (** aggregated 2Q interactions over program qubits, first-seen
          orientation, as produced by [Triq.Placement.interactions] *)
  measured : int list;  (** program qubits that are measured *)
  score : int -> int -> float;  (** directed hardware-pair reliability *)
  readout : int -> float;  (** hardware-qubit readout reliability *)
  objective : objective;
}

(** Validates ranges and fit; raises [Invalid_argument] otherwise. *)
val make :
  ?objective:objective ->
  n_program:int ->
  n_hardware:int ->
  pairs:((int * int) * int) list ->
  measured:int list ->
  score:(int -> int -> float) ->
  readout:(int -> float) ->
  unit ->
  t

(** The identity placement [0..n_program-1]. *)
val trivial : t -> int array

(** [evaluate t placement] is the (min reliability, log-product) pair of a
    complete placement, accumulated in a fixed order (pairs, then
    readouts) that strategies rely on for bit-identical scoring. *)
val evaluate : t -> int array -> float * float

(** Program qubits in decreasing connectivity order (busiest first). *)
val order : t -> int array

(** [partners t] maps each program qubit to its [(other, oriented, count)]
    interaction list; [oriented] is true when the qubit is the pair's
    first operand. *)
val partners : t -> (int * bool * int) list array

(** Membership array for [measured]. *)
val measured_set : t -> bool array

(** Reliabilities at or below this are clamped before taking logs. *)
val log_floor : float
