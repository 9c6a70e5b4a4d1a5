(** Reimplementation of the IBM Qiskit 0.6 compiler behaviour the paper
    compares against (Section 6.3): a lexicographic (identity) initial
    layout — "it always uses the first few qubits in the device regardless
    of noise" — plus greedy stochastic swap insertion that moves the two
    operands toward each other along hop-distance gradients with random
    tie-breaking. One-qubit gates are merged into U gates as Qiskit did.
    Entirely noise-unaware. *)

(** The Qiskit schedule. [seed] drives the stochastic tie-breaking
    (default 1); each run of the routing pass starts a fresh generator
    from it, so the schedule can be run any number of times. *)
val schedule : ?seed:int -> unit -> Triq.Pass.Schedule.t

(** [compile ?seed machine circuit] is {!Triq.Pipeline.compile_schedule}
    on [schedule ?seed ()] at {!Triq.Pass.Config.default}. *)
val compile : ?seed:int -> Device.Machine.t -> Ir.Circuit.t -> Triq.Compiled.t
