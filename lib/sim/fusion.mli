(** Gate fusion for the dense statevector backend.

    A fusion plan rewrites a prepared 1Q/2Q gate stream into fewer,
    cheaper passes over the amplitude array:

    - maximal runs of 1Q gates on one wire collapse into a single 2x2
      apply (their {!Mathkit.Matrix} product), deferred until a 2Q gate
      touches the wire — a commuting-only reorder, so per-wire gate
      order is preserved exactly;
    - structurally diagonal 2x2s (off-diagonals exactly zero — closed
      under products, so Rz/U1/S/T runs qualify) use the one-multiply
      diagonal kernel;
    - consecutive diagonal steps (diagonal 1Q runs and CZ) over up to 8
      distinct wires merge into one [Diag_table] sweep;
    - CNOT/CZ/SWAP/iSWAP route to permutation/sign kernels instead of
      the generic 4x4 multiply.

    Every step remembers its constituent gates ({!member}, keyed by
    position in the prepared stream), so trajectory simulation with
    per-gate Pauli error injection can execute a step unfused exactly
    when one of its gates drew an error, preserving the per-wire
    operation order the error model depends on.

    Every step and every member holds its compiled
    {!Statevector.Kernel.t}, chosen once when the plan is built, so a
    trajectory only runs kernels. *)

type member = {
  idx : int;
  gate : Ir.Gate.t;
  matrix : Mathkit.Matrix.t;  (** [gate]'s unitary, for 1Q products *)
  kernel : Statevector.Kernel.t;  (** replays [gate] alone *)
}

(** [member ~idx g] is the member for gate [g] at stream position [idx]:
    its {!Ir.Matrices} unitary and its {!Statevector.Kernel.of_gate}
    kernel.
    Raises [Invalid_argument] on [Measure]/[Ccx]/[Cswap]. *)
val member : idx:int -> Ir.Gate.t -> member

type step

type t

(** [plan ~n members] fuses a prepared gate stream over [n] wires.
    Gates must be 1Q/2Q with in-range compact operands; [member.idx] is
    preserved into the plan for error-flag addressing. Raises
    [Invalid_argument] on [Measure]/[Ccx]/[Cswap]. *)
val plan : n:int -> member array -> t

val steps : t -> step array

(** The original gates folded into a step, in program order. *)
val step_members : step -> member array

(** Apply a fused step's kernel to the state. *)
val apply_step : Statevector.t -> step -> unit

(** Apply one original gate's kernel (diagonal / permutation / generic)
    — the unfused fallback for steps containing erred gates. *)
val apply_member : Statevector.t -> member -> unit
