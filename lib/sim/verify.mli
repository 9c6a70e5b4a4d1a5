(** Translation validation: check that a compiled executable computes
    exactly what its source program computes.

    The oracle executes both the program and the (compacted) hardware
    circuit noiselessly and compares the output distributions over the
    measured qubits, following the readout map through placement changes.
    This is the invariant every compiler and baseline in the repository
    must maintain; the CLI exposes it as [triqc verify] and the test
    suites apply it across the full machine x level matrix. *)

type result = {
  equivalent : bool;
  total_variation : float;  (** 0 when equivalent *)
  program_distribution : (string * float) list;
  compiled_distribution : (string * float) list;
}

(** [check ~program ~measured compiled] compares noiseless outputs.
    [measured] lists the program qubits in bitstring order (typically
    [spec.measured]); they must all appear in the executable's readout
    map. Distributions match when their total variation is below 1e-6. *)
val check : program:Ir.Circuit.t -> measured:int list -> Triq.Compiled.t -> result
