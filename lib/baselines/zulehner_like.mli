(** Hop-minimizing mapper in the style of Zulehner, Paler and Wille
    (Section 8's related-work comparison): a locality-greedy initial
    placement (each program qubit lands on the free hardware qubit
    minimizing total hop distance to its already-placed partners) followed
    by persistent shortest-hop routing. Noise-unaware by construction. *)

val schedule : Triq.Pass.Schedule.t

(** [compile machine circuit] is {!Triq.Pipeline.compile_schedule} on
    {!schedule} at {!Triq.Pass.Config.default}. *)
val compile : Device.Machine.t -> Ir.Circuit.t -> Triq.Compiled.t
