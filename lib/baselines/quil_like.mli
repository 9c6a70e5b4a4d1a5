(** Reimplementation of the Rigetti Quil 1.9 (quilc) compiler behaviour
    the paper compares against: a trivial initial qubit mapping with
    "insufficient communication optimization and no noise-awareness" —
    non-adjacent 2Q operands are brought together along a shortest hop
    path and swapped back home after the gate, so qubits never migrate and
    repeated interactions pay the full routing cost every time. One-qubit
    gates are compressed into the Rz/Rx basis as quilc did. *)

val schedule : Triq.Pass.Schedule.t

(** [compile machine circuit] is {!Triq.Pipeline.compile_schedule} on
    {!schedule} at {!Triq.Pass.Config.default}. *)
val compile : Device.Machine.t -> Ir.Circuit.t -> Triq.Compiled.t
