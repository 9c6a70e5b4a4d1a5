module Topology = Device.Topology
module Pass = Triq.Pass

(* The stages shared with the TriQ levels once a baseline has placed and
   routed: generic SWAP expansion (baselines know nothing about native
   bases), orientation repair, translation, 1Q coalescing, readout map. *)
let tail_passes =
  Pass.[ swap_expansion_generic; orientation; translation; oneq_coalesce; readout ]

let compile ~name ~day passes machine circuit =
  Triq.Pipeline.compile_schedule ~config:(Pass.Config.make ~day ()) machine circuit
    { Pass.Schedule.name; passes = (Pass.flatten :: passes) @ tail_passes }

let hop_distances topology =
  Array.init (Topology.n_qubits topology) (fun src ->
      Array.map (fun d -> if d < 0 then max_int / 2 else d) (Topology.distances topology src))
