module Machine = Device.Machine
module Topology = Device.Topology
module Router = Triq.Router

(* Home positions never change: swap the control in along a shortest hop
   path to the target's neighbour, perform the gate, swap it back out. *)
let strategy topology : Router.strategy =
 fun t ~index:_ kind a b ->
  let rec hops = function
    | u :: (v :: _ :: _ as rest) -> (u, v) :: hops rest
    | _ -> []
  in
  let hops =
    hops (Topology.shortest_path topology (Router.position t a) (Router.position t b))
  in
  List.iter (fun (u, v) -> Router.swap t u v) hops;
  Router.gate t kind a b;
  List.iter (fun (u, v) -> Router.swap t u v) (List.rev hops)

let schedule =
  Common.schedule ~name:"Quil"
    [
      Triq.Pass.mapping_trivial;
      Triq.Pass.routing_with "shortest-hop SWAPs in and back out around each gate"
        (fun s ->
          let topology = s.Triq.Pass.machine.Machine.topology in
          Router.run (strategy topology) topology);
    ]

let compile machine circuit = Triq.Pipeline.compile_schedule machine circuit schedule
