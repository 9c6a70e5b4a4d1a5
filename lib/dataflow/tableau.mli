(** Aaronson-Gottesman stabilizer tableau: polynomial-time Clifford
    propagation for translation validation and Clifford simulation.

    A stabilizer state on [n] qubits is represented by [n] stabilizer
    generators and their [n] destabilizer partners, each a Pauli
    operator [i^e * prod_q X_q^{x_q} Z_q^{z_q}] with the per-qubit
    factors written X-before-Z. The initial state |0...0> is stabilized
    by [Z_0 .. Z_{n-1}] with destabilizers [X_0 .. X_{n-1}]. Equality,
    dephasing and the generator views read the stabilizer half; the
    destabilizers are what make measurement O(n^2) instead of
    exponential (Aaronson & Gottesman, "Improved simulation of
    stabilizer circuits", 2004).

    Clifford recognition is {e derived numerically} from each gate's
    unitary ({!Ir.Matrices}): a gate is Clifford iff conjugating every
    generator-basis Pauli on its operands ([X_a], [Z_a], ...) by the
    unitary lands back on a signed Pauli (up to 1e-6). This covers the
    whole IR gate set uniformly — [Rz (k*pi/2)], [U2]/[U3] at Clifford
    angles, and the Molmer-Sorensen [Xx (k*pi/4)] are all recognized
    without a case table. [Ccx]/[Cswap] are never Clifford.

    Dense read-out ({!probabilities}, {!amplitudes}) enumerates the
    support — an affine GF(2) space of 2^s basis states, each carrying
    probability exactly 2^-s — via a Gray-code walk, so Clifford-prefix
    circuits can hand the state over to a dense backend for their
    non-Clifford tail. Basis indices put qubit 0 at the highest-order
    bit, like {!Ir.Matrices}. *)

type t

(** A generator as [(e, x, z)]: the Pauli [i^e * prod X^x Z^z]. *)
type generator = int * bool array * bool array

(** [init n] is the tableau of |0...0>: stabilizers [Z_0 .. Z_{n-1}],
    destabilizers [X_0 .. X_{n-1}]. No upper bound on [n] for tableau
    operations; dense read-out is capped at 24 qubits. *)
val init : int -> t

val n_qubits : t -> int

(** Independent deep copy. *)
val copy : t -> t

(** Raw generators, in internal order (no canonicalization). *)
val generators : t -> generator list

(** [is_clifford_gate g] tests whether [g] has a Clifford action, derived
    afresh on every call. [Measure] is not Clifford (it is not
    unitary). *)
val is_clifford_gate : Ir.Gate.t -> bool

(** A gate's derived Clifford action: its conjugation table over the
    4^k local Pauli patterns of its k operand slots. Entry [code] packs
    slot j's X bit at 2j and Z bit at 2j+1 of a pattern, X before Z on
    each slot; the entry is the pattern's image in the same packing with
    the phase exponent (the e of i^e) above bit 2k. *)
module Action : sig
  type t = private int array

  (** The derivation behind {!is_clifford_gate}: [None] when the gate is
      not Clifford, including non-finite angles. Raises
      [Invalid_argument] on [Measure]. *)
  val of_gate : Ir.Gate.t -> t option

  (** [prefix gates] is the actions of the longest prefix of [gates]
      that is all Clifford; a [Measure] ends it like a non-Clifford
      gate. Nothing past the first non-Clifford gate is derived, and
      each distinct gate shape (the gate with its operands dropped) is
      derived once per call. *)
  val prefix : Ir.Gate.t array -> t array
end

(** A compiled gate application: an action's table bound to its operand
    qubits, making the per-row update a table read plus bit writes with
    no allocation. This is the hot path for repeated trajectory
    replays. *)
type app

(** [compile_action act qs] binds [act] to the qubits [qs], which must
    be as many as the gate [act] was derived from has. Raises
    [Invalid_argument] unless there are 1 or 2. *)
val compile_action : Action.t -> int array -> app

(** [apply_app t app] conjugates every row of [t] in place. *)
val apply_app : t -> app -> unit

(** [conjugate_masks app ~xm ~zm] conjugates a single Pauli — given as
    qubit-indexed bit masks, bit [q] = qubit [q] — by the compiled gate,
    dropping the (globally irrelevant) phase. The map is linear over
    GF(2), so the simulator builds a Pauli frame from it: one backward
    pass records where X and Z on each gate's operands end up at the end
    of a Clifford span. *)
val conjugate_masks : app -> xm:int -> zm:int -> int * int

(** [apply t g] conjugates every row by [g] in place and returns
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
    larger space not in the image get fresh [+Z] generators with [X]
    destabilizers — i.e. the embedding asserts they are in |0>. Raises
    [Invalid_argument] if [map] is not an injection into [0..n-1] or [n]
    is too small. *)
val embed : t -> n:int -> map:int array -> t

(** [canonicalize t] is the generator set's unique row-reduced echelon
    form (Gaussian elimination over the X block then the Z block, with
    Pauli-product row operations so phases stay consistent). Two
    tableaux stabilize the same state iff their canonical forms are
    identical. *)
val canonicalize : t -> generator list

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

(** [measure t q rng] measures qubit [q] in the Z basis, collapsing the
    state in place, and returns the outcome. Draws one fair coin from
    [rng] iff the outcome is random (some stabilizer anticommutes with
    [Z_q]); deterministic outcomes consume no randomness. *)
val measure : t -> int -> Mathkit.Rng.t -> bool

(** [measure_all t rng] measures every qubit in order and returns the
    outcome as a basis index (qubit 0 = highest-order bit). *)
val measure_all : t -> Mathkit.Rng.t -> int

(** Frozen read-out structure for repeated probability extraction from
    sign-perturbed variants of one tableau. Conjugating a stabilizer
    state by a Pauli only flips row signs — the support's linear span
    never moves, only its affine base point — so a whole Monte-Carlo
    run over Pauli error trajectories can precompute the echelonized
    support once and price each trajectory at a handful of bit
    operations plus the 2^s support walk. *)
type readout

(** Freeze the read-out structure of [t] (typically the ideal end-state
    of a Clifford circuit). Raises [Invalid_argument] above 24
    qubits. *)
val readout : t -> readout

(** [flip_mask r ~xm] is the sign-flip pattern (one bit per frozen
    Z-constraint row) induced by conjugating the state with a Pauli
    whose X support is the qubit-indexed mask [xm] — combine patterns
    from successive errors with [lxor]. *)
val flip_mask : readout -> xm:int -> int

(** [readout_probabilities r ~flips] is the full 2^n probability vector
    of the tableau with the given sign-flip pattern applied: uniform
    mass 2^-s on the 2^s-point support. *)
val readout_probabilities : readout -> flips:int -> float array

(** [add_readout_probabilities r ~flips acc] adds
    [readout_probabilities r ~flips] into [acc] (length 2^n) without
    allocating: only the 2^s support entries are touched. *)
val add_readout_probabilities : readout -> flips:int -> float array -> unit

(** [probabilities t] is [readout_probabilities (readout t) ~flips:0].
    Raises [Invalid_argument] above 24 qubits. *)
val probabilities : t -> float array

(** [amplitudes t] is the exact dense state as [(re, im)] arrays of
    length 2^n: amplitudes are 2^(-s/2) times powers of i, up to the
    global phase fixed by making the support's base point
    real-positive. Raises [Invalid_argument] above 24 qubits. *)
val amplitudes : t -> float array * float array
