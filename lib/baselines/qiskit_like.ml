module Machine = Device.Machine
module Topology = Device.Topology
module Rng = Mathkit.Rng

(* Greedy stochastic routing: while the operands of a 2Q gate are apart,
   apply the swap (adjacent to either operand) that most reduces their hop
   distance, breaking ties at random. *)
let route machine rng ~placement (c : Ir.Circuit.t) =
  let topology = machine.Machine.topology in
  let n_hardware = Topology.n_qubits topology in
  let dist = Common.hop_distances topology in
  let cur = Array.copy placement in
  let occupant = Array.make n_hardware (-1) in
  Array.iteri (fun p h -> occupant.(h) <- p) cur;
  let out = ref [] in
  let swaps = ref 0 in
  let emit g = out := g :: !out in
  let apply_swap u v =
    emit (Ir.Gate.Two (Ir.Gate.Swap, u, v));
    incr swaps;
    let pu = occupant.(u) and pv = occupant.(v) in
    occupant.(u) <- pv;
    occupant.(v) <- pu;
    if pv >= 0 then cur.(pv) <- u;
    if pu >= 0 then cur.(pu) <- v
  in
  let route_two kind a b =
    let guard = ref 0 in
    while not (Topology.coupled topology cur.(a) cur.(b)) do
      incr guard;
      if !guard > 4 * n_hardware then failwith "Qiskit_like: routing diverged";
      let ha = cur.(a) and hb = cur.(b) in
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
      apply_swap u v
    done;
    emit (Ir.Gate.Two (kind, cur.(a), cur.(b)))
  in
  List.iter
    (fun g ->
      match (g : Ir.Gate.t) with
      | One (k, p) -> emit (Ir.Gate.One (k, cur.(p)))
      | Measure p -> emit (Ir.Gate.Measure cur.(p))
      | Two (kind, a, b) -> route_two kind a b
      | Ccx _ | Cswap _ -> invalid_arg "Qiskit_like: circuit not flattened")
    c.Ir.Circuit.gates;
  (Ir.Circuit.create n_hardware (List.rev !out), cur, !swaps)

let compile ?(day = 0) ?(seed = 1) machine circuit =
  Common.compile ~name:"Qiskit" ~day
    [
      Triq.Pass.mapping_trivial;
      Triq.Pass.make ~name:"routing" ~optional:false (fun s ->
          let circuit, final_placement, swap_count =
            route s.Triq.Pass.machine (Rng.create seed)
              ~placement:s.Triq.Pass.initial_placement s.Triq.Pass.circuit
          in
          { s with Triq.Pass.circuit; final_placement; swap_count });
    ]
    machine circuit
