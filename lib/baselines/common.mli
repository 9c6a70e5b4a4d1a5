(** Shared back-end for the baseline compilers. A baseline is a
    {!Triq.Pass.Schedule.t} run by {!Triq.Pipeline.compile_schedule}, the
    driver the TriQ levels use: the [flatten] pass, the baseline's own
    placement and routing passes, then the stages shared across baselines
    (generic SWAP expansion, CNOT orientation repair, translation to the
    software-visible gate set, 1Q coalescing, readout map). *)

(** [schedule ~name passes] is the schedule [name]: [flatten], [passes],
    then the shared stages. *)
val schedule : name:string -> Triq.Pass.t list -> Triq.Pass.Schedule.t

(** [hop_distances topology] is the all-pairs hop-count matrix, one
    breadth-first search per row; unreachable pairs are [max_int / 2]. *)
val hop_distances : Device.Topology.t -> int array array
