(** Exact execution of compiled programs via the density-matrix backend.

    Implements the same noise semantics as the Monte-Carlo {!Runner} —
    each gate followed by its calibrated depolarizing channel, readout
    bits flipped independently — but computes the outcome distribution in
    closed form. Restricted to executables touching at most ~8 hardware
    qubits; used to cross-validate the trajectory sampler and for
    high-precision small-system studies. *)

type outcome = {
  distribution : (string * float) list;
      (** exact readout-corrupted distribution over measured program bits *)
  success_rate : float;
  purity : float;  (** Tr(rho^2) of the final state, before readout *)
}

(** [run ?explicit_t1 compiled spec] executes exactly; [explicit_t1]
    replaces the decoherence fold with amplitude-damping channels. Raises
    [Invalid_argument] when the circuit touches more than 8 qubits. *)
val run : ?explicit_t1:bool -> Triq.Compiled.t -> Ir.Spec.t -> outcome
