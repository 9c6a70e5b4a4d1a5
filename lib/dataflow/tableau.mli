(** Stabilizer tableau domain: polynomial-time Clifford propagation.

    A stabilizer state on [n] qubits is represented by [n] generators,
    each a Pauli operator [i^e * prod_q X_q^{x_q} Z_q^{z_q}] with the
    per-qubit factors written X-before-Z. The initial state |0...0> is
    stabilized by [Z_0 .. Z_{n-1}].

    Clifford recognition is {e derived numerically} from each gate's
    unitary ({!Ir.Matrices}): a gate is Clifford iff conjugating every
    generator-basis Pauli on its operands ([X_a], [Z_a], ...) by the
    unitary lands back on a signed Pauli (up to 1e-6). This covers the
    whole IR gate set uniformly — [Rz (k*pi/2)], [U2]/[U3] at Clifford
    angles, and the Molmer-Sorensen [Xx (k*pi/4)] are all recognized
    without a case table. [Ccx]/[Cswap] are never Clifford. *)

type t

(** A generator as [(e, x, z)]: the Pauli [i^e * prod X^x Z^z]. *)
type generator = int * bool array * bool array

(** [init n] is the tableau of |0...0>: generators [Z_0 .. Z_{n-1}]. *)
val init : int -> t

val n_qubits : t -> int

(** Raw generators, in internal order (no canonicalization). *)
val generators : t -> generator list

(** [is_clifford_gate g] tests whether [g] has a Clifford action.
    [Measure] is not Clifford (it is not unitary). Results are memoized
    per gate shape in a {!Parallel.Memo} instance (capacity 4096,
    counters [dataflow.action.*]). *)
val is_clifford_gate : Ir.Gate.t -> bool

(** A gate's derived Clifford action, applicable to caller-owned Pauli
    rows. This is the reuse surface for external tableau
    representations (e.g. the simulator's Aaronson-Gottesman tableau,
    which carries destabilizer rows this module does not). *)
module Action : sig
  type t

  (** Same memoized derivation as {!is_clifford_gate}: [None] when the
      gate is not Clifford. Raises [Invalid_argument] on [Measure]. *)
  val of_gate : Ir.Gate.t -> t option

  (** The derivation memo's stats (see {!is_clifford_gate}). *)
  val memo_stats : unit -> Parallel.Memo.stats

  (** Number of operand slots (1 or 2). *)
  val arity : t -> int

  (** [conjugate act qs ~x ~z e] conjugates the Pauli
      [i^e * prod_q X_q^{x_q} Z_q^{z_q}] by the gate acting on qubits
      [qs] (length = {!arity}), updating [x]/[z] in place and returning
      the new phase exponent (mod 4). *)
  val conjugate : t -> int array -> x:bool array -> z:bool array -> int -> int

  (** Dense conjugation table over the 4^arity local Pauli patterns,
      for callers that conjugate rows in bulk: index and result pack
      slot [j]'s X bit at position [2j] and Z bit at [2j+1]; the result
      carries the phase increment (mod 4) above bit [2*arity]. *)
  val table : t -> int array
end

(** [apply t g] conjugates every generator by [g] in place and returns
    [true]; returns [false] (state untouched) when [g] is not Clifford.
    Raises [Invalid_argument] on [Measure] or out-of-range operands. *)
val apply : t -> Ir.Gate.t -> bool

(** [of_circuit c] propagates |0...0> through the measure-free view of
    [c]; [None] when some gate is not Clifford. *)
val of_circuit : Ir.Circuit.t -> t option

(** [clifford_prefix c] is the length (in gates, measures excluded from
    the count) of the maximal Clifford prefix of [c]'s body. *)
val clifford_prefix : Ir.Circuit.t -> int

(** [embed t ~n ~map] re-indexes [t] into an [n]-qubit tableau: old
    qubit [q] becomes [map.(q)] (injective, in range). Qubits of the
    larger space not in the image get fresh [+Z] generators — i.e. the
    embedding asserts they are in |0>. Raises [Invalid_argument] if
    [map] is not an injection into [0..n-1] or [n] is too small. *)
val embed : t -> n:int -> map:int array -> t

(** [canonicalize t] reduces the generator set to its unique
    row-reduced echelon form (Gaussian elimination over the X block
    then the Z block, with Pauli-product row operations so phases stay
    consistent). Two tableaux stabilize the same state iff their
    canonical forms are identical. *)
val canonicalize : t -> t

(** [equal a b] tests whether two tableaux stabilize the same state
    (via {!canonicalize}). False when qubit counts differ. *)
val equal : t -> t -> bool

(** [dephase t ~measured] is the canonical basis of the subgroup of
    stabilizers with no X component on any wire in [measured]. Z-basis
    dephasing on those wires kills exactly the Pauli terms with X/Y
    there, so this basis is the complete invariant of the state once
    the wires are read out: it determines the joint outcome
    distribution and the conditional states of the remaining wires. *)
val dephase : t -> measured:int list -> generator list

(** [measurement_equal a b ~measured] tests whether the two states are
    indistinguishable given that the [measured] wires are read out in
    the Z basis and everything else stays quantum — {!equal} modulo
    diagonal phases on measured wires (e.g. an [S] dropped just before
    its readout, the `oneq` coalescer's legal move). *)
val measurement_equal : t -> t -> measured:int list -> bool

(** [first_difference ?measured a b] is a human-readable witness
    generator pair when the states differ (under {!measurement_equal}
    when [measured] is given, {!equal} otherwise), e.g.
    ["+XZI vs -XZI"]. *)
val first_difference : ?measured:int list -> t -> t -> string option

(** ["+XIZ"]-style rendering of a generator. *)
val generator_to_string : generator -> string
