module Machine = Device.Machine
module Topology = Device.Topology
module Router = Triq.Router
module Rng = Mathkit.Rng

(* Greedy stochastic routing: while the operands of a 2Q gate are apart,
   apply the swap (adjacent to either operand) that most reduces their hop
   distance, breaking ties at random. *)
let strategy topology rng : Router.strategy =
  let n_hardware = Topology.n_qubits topology in
  let dist = Common.hop_distances topology in
  fun t ~index:_ kind a b ->
    let guard = ref 0 in
    while not (Router.coupled t a b) do
      incr guard;
      if !guard > 4 * n_hardware then failwith "Qiskit_like: routing diverged";
      let ha = Router.position t a and hb = Router.position t b in
      let candidates =
        List.map (fun v -> (ha, v)) (Topology.neighbors topology ha)
        @ List.map (fun v -> (hb, v)) (Topology.neighbors topology hb)
      in
      let score (u, v) =
        (* Distance between the operands if we swapped (u, v). *)
        let pos q = if q = u then v else if q = v then u else q in
        dist.(pos ha).(pos hb)
      in
      let best = List.fold_left (fun acc sw -> min acc (score sw)) max_int candidates in
      let best_swaps = List.filter (fun sw -> score sw = best) candidates in
      let u, v = Rng.choose rng best_swaps in
      Router.swap t u v
    done;
    Router.gate t kind a b

let compile ?(day = 0) ?(seed = 1) machine circuit =
  Common.compile ~name:"Qiskit" ~day
    [
      Triq.Pass.mapping_trivial;
      Triq.Pass.routing_with "greedy hop-distance SWAPs, random tie-breaks" (fun s ->
          let topology = s.Triq.Pass.machine.Machine.topology in
          Router.run (strategy topology (Rng.create seed)) topology);
    ]
    machine circuit
