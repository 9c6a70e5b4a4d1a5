(** Shared back-end for the baseline compilers. A baseline is a
    {!Triq.Pass.Schedule.t} run by {!Triq.Pipeline.compile_schedule}, the
    driver the TriQ levels use: the [flatten] pass, the baseline's own
    placement and routing passes, then the stages shared across baselines
    (generic SWAP expansion, CNOT orientation repair, translation to the
    software-visible gate set, 1Q coalescing, readout map). *)

(** [compile ~name ~day passes machine circuit] compiles [circuit] at
    calibration day [day] with the schedule [name]: [flatten], [passes],
    then the shared stages. Raises [Invalid_argument] (rule
    [circuit.bounds]) if the program does not fit the machine. *)
val compile :
  name:string ->
  day:int ->
  Triq.Pass.t list ->
  Device.Machine.t ->
  Ir.Circuit.t ->
  Triq.Compiled.t

(** [hop_distances topology] is the all-pairs hop-count matrix. *)
val hop_distances : Device.Topology.t -> int array array
