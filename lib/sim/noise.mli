(** Noise model driven by calibration data.

    Every physical gate fails independently with its calibrated error
    probability (folded with a decoherence term for the gate's duration
    relative to the machine's coherence time); a failure injects a uniform
    random non-identity Pauli on the gate's qubits after the ideal gate —
    the standard depolarizing trajectory model. Virtual-Z gates are
    error-free on all three vendors. Readout errors flip each measured bit
    independently with the qubit's calibrated readout error. *)

type t

(** [of_day machine ~day] builds the model for [machine]'s calibration
    of [day]. This is the one place the simulator reads a calibration. *)
val of_day : Device.Machine.t -> day:int -> t

(** [gate_error_prob t g] is the failure probability of a hardware-level,
    software-visible gate ([Measure] returns 0 — readout is separate). *)
val gate_error_prob : t -> Ir.Gate.t -> float

(** [error_prob t ~explicit_t1 g] is the failure probability a
    simulator draws [g]'s Pauli error with: {!gate_error_prob} by
    default, and the calibrated error alone, without the decoherence
    fold, when [explicit_t1] models relaxation as its own channel
    ({!relaxation_gamma}). *)
val error_prob : t -> explicit_t1:bool -> Ir.Gate.t -> float

(** [relaxation_gamma t g] is the per-qubit T1 decay probability over the
    gate's duration: 1 - exp(-duration / T). *)
val relaxation_gamma : t -> Ir.Gate.t -> float

(** [readout_flip_prob t q] is the probability that reading hardware qubit
    [q] returns the wrong bit. *)
val readout_flip_prob : t -> int -> float

(** [draw_error rng g] draws the Pauli error of a failed 1Q or 2Q gate
    [g], packed as [4 * pa + pb]: the Pauli on [g]'s first and on its
    second operand (0 = I, then X, Y, Z). A 1Q error is a uniform X, Y
    or Z; a 2Q error a uniform non-identity pair, drawn by rejection.
    This is the simulator's one error draw: the runner's replayed
    errors and its Pauli frame both consume a trajectory's stream
    through it. Raises [Invalid_argument] on other gates. *)
val draw_error : Mathkit.Rng.t -> Ir.Gate.t -> int

(** [apply_error state code qs] applies the error [code] of
    {!draw_error} to the state indices [qs] of the gate's operands,
    through dense Pauli kernels built once per qubit. *)
val apply_error : Statevector.t -> int -> int array -> unit
