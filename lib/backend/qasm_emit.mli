(** OpenQASM 2.0 code generation (the IBM executable format).

    Emits the software-visible IBM gate set only (u1/u2/u3/cx + measure);
    the compiled circuit must therefore be in [Ibm_visible] form. Classical
    bits follow the readout map's order, so bit [i] of the result register
    is measured program qubit number [i]. Every angle is printed as
    [%.17g], which parses back to the same float; signed zero and NaN are
    printed as the bits say ("-0", "nan" or "-nan"). *)

(** [emit compiled] renders an OpenQASM 2.0 program. Raises
    [Invalid_argument] when the executable is not IBM-form. *)
val emit : Triq.Compiled.t -> string

(** [emit_circuit ~n_qubits ~name circuit] renders a bare hardware circuit
    (measures map to classical bits in program order) — used by tests and
    the round-trip checks. *)
val emit_circuit : n_qubits:int -> name:string -> Ir.Circuit.t -> string

(** [emit_program ~name circuit] renders a *program-level* IR circuit as
    portable OpenQASM 2.0 using the qelib1 vocabulary (h, x, rz, cx, ccx,
    ...), decomposing gates qelib1 lacks (Rxy, XX, iSWAP) into it. The
    measured qubits map to classical bits in gate order. Round-trips
    through {!Qasm.Frontend} with identical semantics (tested). *)
val emit_program : name:string -> Ir.Circuit.t -> string
