(** Expected-output specification of a benchmark.

    The paper's figure of merit is the success rate: the fraction of
    repeated trials whose measured bitstring is the correct answer. A spec
    records, for the *program* qubits that are measured, the correct
    output distribution (a single bitstring for the deterministic NISQ
    benchmarks used in the paper). *)

type t = private {
  measured : int list;  (** program qubits read out, in bitstring order *)
  expected : (string * float) list;
      (** correct distribution: bitstring (chars '0'/'1', one per measured
          qubit, same order as [measured]) with probability *)
}

(** [deterministic measured bits] expects exactly [bits] with probability
    1. [bits] must have one char per measured qubit. *)
val deterministic : int list -> string -> t

(** [distribution measured dist] expects the given distribution; the
    probabilities must be positive and sum to at most 1 + 1e-6. *)
val distribution : int list -> (string * float) list -> t

(** [of_distribution measured dist] is the spec of a program whose
    noiseless output is [dist]: {!deterministic} on the top outcome when
    its probability is above 0.99, otherwise {!distribution}. *)
val of_distribution : int list -> (string * float) list -> t

(** [success_rate t counts] scores an observed histogram (bitstring ->
    number of shots): the fraction of shots landing on the expected
    answer(s), weighted so a perfect device scores 1. For a deterministic
    spec this is exactly the paper's success rate. *)
val success_rate : t -> (string * int) list -> float

(** [dominates t counts] is true when the expected answer is the mode of
    the observed histogram — the paper reports "failed runs" as those where
    the correct answer did not dominate the output distribution. *)
val dominates : t -> (string * int) list -> bool

val pp : Format.formatter -> t -> unit
