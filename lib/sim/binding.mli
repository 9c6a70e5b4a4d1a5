(** The one binding of a compiled executable to a simulated register.

    Every simulator — the trajectory {!Runner}, the exact
    {!Density_runner} and the noiseless {!Verify} oracle — reads an
    executable through this module, so they agree by construction on
    which hardware qubits are simulated, where each measured program
    qubit is read, and (with {!flips}) which readout errors apply. Each
    engine keeps its own evolution and its own qubit bound.

    Only the [k] hardware qubits the circuit touches (measured ones
    included) are simulated; they take compact indices [0 .. k-1] in
    ascending hardware order. *)

type t = private {
  k : int;  (** hardware qubits the circuit touches *)
  gates : Ir.Gate.t array;  (** the non-measure hardware gates, in order *)
  compact : Ir.Gate.t array;  (** [gates] on compact indices *)
  readouts : int list;
      (** for each measured program qubit, in the order given to {!make},
          the hardware qubit it is read from *)
  positions : int list;  (** the compact indices of [readouts] *)
}

(** [make compiled ~measured] binds [compiled] with the program qubits
    [measured] in bitstring order (typically [spec.measured]). Raises
    [Invalid_argument "Sim.Binding: program qubit p is not measured"]
    when [compiled] does not read [p] out. A circuit that touches no
    qubit binds with [k = 0]. *)
val make : Triq.Compiled.t -> measured:int list -> t

(** [flips t noise] is each measured bit's readout-flip probability
    under [noise], in bitstring order. *)
val flips : t -> Noise.t -> float array

(** [readout t probs flips] is the readout channel: [probs] (over the
    [2^k] compact basis states) projected onto the measured bits,
    corrupted by [flips] bit by bit, as a bitstring distribution
    ({!Dist.to_strings}). *)
val readout : t -> float array -> float array -> (string * float) list
