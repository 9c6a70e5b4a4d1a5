(** Static validation of compiled executables.

    The read side of the pass-invariant harness: package a finished
    {!Compiled.t} as an {!Analysis.Check.executable}
    and run the full rule catalog over it. This is the cheap structural
    complement to the dynamic oracle {!Sim.Verify.check} — it never
    simulates, so it runs in linear time on any size of executable, and
    it applies to the baseline compilers' output just as well as TriQ's.

    Pass [measured] (the source program's measured qubits) when the
    caller still has the program; without it the readout-coverage
    direction of [exec.readout] is relaxed to internal consistency. *)

(** [executable_of_compiled ?measured c] is the static view of [c]. *)
val executable_of_compiled :
  ?measured:int list -> Compiled.t -> Analysis.Check.executable

(** [check_compiled ?measured c] returns every rule violation in [c]
    (empty list = statically well-formed). *)
val check_compiled : ?measured:int list -> Compiled.t -> Analysis.Diag.t list
