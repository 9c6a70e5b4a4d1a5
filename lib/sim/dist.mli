(** Distribution utilities shared by the trajectory and density-matrix
    runners: projecting a probability vector onto measured qubits,
    corrupting it with per-bit readout error, and scaling to shot
    counts. *)

(** [project probs k positions] marginalizes a 2^k probability vector onto
    the (ordered) qubit [positions]; the result is indexed by the
    bitstring read MSB-first in position order. *)
val project : float array -> int -> int list -> float array

(** [corrupt_readout q flip] applies independent per-bit flip
    probabilities [flip] to the projected distribution [q]. *)
val corrupt_readout : float array -> float array -> float array

(** [to_strings dist] pairs every outcome of a projected distribution with
    its bitstring, descending probability, dropping mass below 1e-6. *)
val to_strings : float array -> (string * float) list

(** [to_counts dist trials] scales a distribution to integer shot counts
    using largest remainders; counts sum exactly to [trials]. *)
val to_counts : (string * float) list -> int -> (string * int) list

(** [total_variation a b] is the total-variation distance between two
    distributions given as bitstring association lists (missing outcomes
    count as 0): 0 = identical, 1 = disjoint support. *)
val total_variation : (string * float) list -> (string * float) list -> float

(** [parity_expectation dist positions] is the expectation of the parity
    observable (product of Z on the given bitstring positions) under a
    distribution over bitstrings: sum of p * (-1)^(popcount of selected
    bits). Positions index into the bitstring (0 = leftmost). *)
val parity_expectation : (string * float) list -> int list -> float
