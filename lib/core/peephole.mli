(** Peephole cleanup of hardware circuits (an extension beyond the paper's
    pipeline; off by default, measured by the ablation benchmark).

    Routing composes independently-generated fragments, which regularly
    juxtaposes self-inverse 2Q gates — e.g. a CNOT immediately followed by
    the SWAP expansion's first CNOT on the same coupling. This pass
    cancels adjacent self-inverse pairs:
    - CNOT a,b ; CNOT a,b (same orientation),
    - CZ a,b ; CZ b,a (CZ is symmetric),
    - SWAP a,b ; SWAP b,a,
    with no intervening gate on either qubit, iterating to a fixed point.
    It never touches 1Q gates (the 1Q optimizer owns those). *)

(** [cancel_two_q c] removes cancelling adjacent 2Q pairs. The result is
    exactly unitary-equivalent (checked by tests). *)
val cancel_two_q : Ir.Circuit.t -> Ir.Circuit.t
