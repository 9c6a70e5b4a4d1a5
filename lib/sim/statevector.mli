(** Dense statevector simulator.

    This is the stand-in for the paper's real hardware: compiled circuits
    execute on a full 2^n amplitude vector. Amplitudes are stored as
    separate unboxed float arrays (real/imaginary) for speed; qubit 0 is
    the highest-order bit of the basis index, matching
    {!Ir.Matrices.circuit_unitary}. Intended for the compacted circuits
    the runner produces (n <= ~14). *)

type t

(** The most qubits a state holds: 24. *)
val max_qubits : int

(** [init n] is |0...0> on [n] qubits (1 <= n <= {!max_qubits}). *)
val init : int -> t

(** [of_tableau t] is the exact dense state of the stabilizer tableau
    [t] ({!Dataflow.Tableau.amplitudes}): the Clifford-prefix hand-off
    from the tableau to this backend. Raises [Invalid_argument] above 24
    qubits. *)
val of_tableau : Dataflow.Tableau.t -> t

val n_qubits : t -> int

(** [copy t] is an independent snapshot. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst]'s amplitudes with [src]'s; both
    must have the same qubit count. *)
val blit : src:t -> dst:t -> unit

(** [amplitude t i] is the amplitude of basis state [i]. *)
val amplitude : t -> int -> Mathkit.Cplx.t

(** [probability t i] is |amplitude|^2 of basis state [i]. *)
val probability : t -> int -> float

(** [probabilities t] is the full probability vector (length 2^n). *)
val probabilities : t -> float array

(** [add_probabilities t acc] adds [probability t i] to [acc.(i)] for
    every basis state; [acc] must have length 2^n. {!probabilities} is
    this sum into zeros. *)
val add_probabilities : t -> float array -> unit

(** [norm2 t] is the total probability (1 up to rounding). *)
val norm2 : t -> float

(** A gate compiled for the statevector: its kernel kind chosen once
    and its coefficients unpacked into flat float arrays, so {!apply}
    reads no {!Mathkit.Matrix}, calls no closure and allocates nothing.
    Qubits are state indices ([0] = high bit); the 1Q and 2Q kernels
    fit any state that holds their qubits, a diagonal table only the
    size it was built for. Build kernels with the functions below. *)
module Kernel : sig
  type t = private
    | Dense1 of { q : int; m : float array }
        (** A 2x2 unitary: real parts in row-major order, then the
            imaginary parts (8 floats). *)
    | Diag1 of { q : int; d : float array }
        (** [diag (d0, d1)] as [[| re d0; re d1; im d0; im d1 |]]: one
            complex multiply per amplitude. *)
    | Cnot of { c : int; x : int }  (** Flips [x] where [c] is 1. *)
    | Cz of { a : int; b : int }  (** Negates the amplitudes with both 1. *)
    | Swap of { a : int; b : int }
    | Iswap of { a : int; b : int }
        (** Swaps the |01>/|10> amplitudes and multiplies each by i. *)
    | Dense2 of { a : int; b : int; m : float array }
        (** A 4x4 unitary on [(a, b)] ([a] = high bit of the matrix
            index): 16 real parts in row-major order, then 16
            imaginary parts. *)
    | Diag_table of { n : int; shifts : int array; fr : float array; fi : float array }
        (** A diagonal operator over some wires of an [n]-qubit state,
            [shifts] their bit positions in a basis index (the first
            wire's = high bit of the table key): amplitude [idx] is
            multiplied by [(fr.(key), fi.(key))] where [key] collects
            those bits of [idx]. *)

  (** [dense_one m q] is the 2x2 unitary [m] on qubit [q], always
      through the dense kernel. *)
  val dense_one : Mathkit.Matrix.t -> int -> t

  (** [dense_two m a b] is the 4x4 unitary [m] on [(a, b)], always
      through the [Dense2] kernel. *)
  val dense_two : Mathkit.Matrix.t -> int -> int -> t

  (** [one_q m q] is [Diag1] when [m]'s off-diagonal entries are
      exactly zero (closed under products, so Rz/U1/S/T runs qualify),
      else {!dense_one}. *)
  val one_q : Mathkit.Matrix.t -> int -> t

  (** [of_gate g m] is the cheapest kernel for the 1Q or 2Q gate [g]
      whose unitary is [m] ({!Ir.Matrices}): {!one_q}, a permutation or
      sign kernel for CNOT, CZ, SWAP and iSWAP, [Dense2] for XX.
      Raises [Invalid_argument] on other gates. *)
  val of_gate : Ir.Gate.t -> Mathkit.Matrix.t -> t

  (** [conj k ~offset] is the complex conjugate of the dense kernel [k]
      ([Dense1] or [Dense2]) on its qubits moved up by [offset]: the
      same real coefficients and the imaginary ones negated, exactly
      the floats of the conjugated matrix. The density backend applies
      [k] to a row qubit and this to its column qubit. Raises
      [Invalid_argument] on other kernels. *)
  val conj : t -> offset:int -> t

  (** [diag_table ~n ~qs ~fr ~fi] is the diagonal table over the wires
      [qs] (1 to 16 qubits below [n], [qs.(0)] = high bit of the key)
      with [2^wires] factors. *)
  val diag_table :
    n:int -> qs:int array -> fr:float array -> fi:float array -> t
end

(** [apply t k] applies the kernel [k] in place. Raises
    [Invalid_argument] when a qubit of [k] is out of range for [t]. *)
val apply : t -> Kernel.t -> unit

(** [apply_one t m q] applies the 2x2 unitary [m] to qubit [q] in place,
    through the [Dense1] kernel: its one allocation is the coefficient
    array. *)
val apply_one : t -> Mathkit.Matrix.t -> int -> unit

(** [apply_two t m a b] applies the 4x4 unitary [m] to qubits [(a, b)]
    ([a] = high bit of the matrix index) in place, through the [Dense2]
    kernel: its one allocation is the coefficient array. *)
val apply_two : t -> Mathkit.Matrix.t -> int -> int -> unit

(** [apply_pauli t ~x ~z] applies the Pauli string [X^x Z^z] (qubit-indexed
    bit masks, bit [q] = qubit [q]; Z first) as one permute-and-negate
    pass. A [Y] on qubit [q] is [x] and [z] both set, which differs from
    [Y] by the global phase [i]: the result equals the exact Pauli's up
    to a global phase in {±1, ±i}, which every kernel here carries
    through exactly. *)
val apply_pauli : t -> x:int -> z:int -> unit

(** [apply_gate t g] dispatches a non-measure IR gate; raises
    [Invalid_argument] on [Measure]. *)
val apply_gate : t -> Ir.Gate.t -> unit

(** [run circuit] executes a measure-free prefix view of [circuit] from
    |0...0> (measures are skipped — readout is handled by the caller). *)
val run : Ir.Circuit.t -> t

(** [cdf_index cumulative target] is the index of the bucket a draw of
    [target] selects in a non-decreasing cumulative-mass table: the
    smallest [i] with [cumulative.(i) > target], walked back over
    trailing zero-mass buckets when [target] reaches the table's final
    value (rounding can make the draw equal the total). Never selects a
    zero-probability bucket of a well-formed table. Exposed so the
    boundary cases can be tested directly; {!sampler} is the intended
    entry point. *)
val cdf_index : float array -> float -> int

(** [sampler t] precomputes the cumulative probability table once
    (a single O(2^n) pass) and returns a draw function costing O(n) per
    sample — the right tool for repeated sampling from one state. The
    closure snapshots the state: later mutations of [t] are not seen. *)
val sampler : t -> Mathkit.Rng.t -> int

(** [scale t c] multiplies every amplitude by the real scalar [c]
    (used by the density-matrix backend's Kraus sums). *)
val scale : t -> float -> unit

(** [add_scaled dst c src] adds [c] times [src]'s amplitudes into [dst];
    both must have the same qubit count. *)
val add_scaled : t -> float -> t -> unit

(** [zero_like t] is an all-zero amplitude vector of the same shape
    (not a valid quantum state until written to). *)
val zero_like : t -> t

(** [excited_population t q] is the probability of reading 1 on qubit
    [q]. *)
val excited_population : t -> int -> float

(** [relax t q ~gamma rng] applies single-qubit amplitude damping by the
    quantum-jump method: with probability [gamma *
    excited_population t q] the qubit decays to |0> (jump), otherwise the
    no-jump Kraus operator is applied; the state is renormalized either
    way. Returns [true] when a jump occurred. *)
val relax : t -> int -> gamma:float -> Mathkit.Rng.t -> bool
