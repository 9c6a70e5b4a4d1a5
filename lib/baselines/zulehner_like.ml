module Machine = Device.Machine
module Topology = Device.Topology

let greedy_placement machine (flat : Ir.Circuit.t) =
  let topology = machine.Machine.topology in
  let n_hardware = Topology.n_qubits topology in
  let n_program = flat.Ir.Circuit.n_qubits in
  let dist = Common.hop_distances topology in
  let pairs = Triq.Placement.interactions flat in
  let weight = Array.make n_program 0 in
  let partners = Array.make n_program [] in
  List.iter
    (fun ((a, b), count) ->
      weight.(a) <- weight.(a) + count;
      weight.(b) <- weight.(b) + count;
      partners.(a) <- (b, count) :: partners.(a);
      partners.(b) <- (a, count) :: partners.(b))
    pairs;
  let order = Array.init n_program (fun i -> i) in
  Array.sort (fun a b -> compare (weight.(b), a) (weight.(a), b)) order;
  let placement = Array.make n_program (-1) in
  let used = Array.make n_hardware false in
  let centre =
    (* Start from the highest-degree hardware qubit. *)
    let best = ref 0 in
    for h = 1 to n_hardware - 1 do
      if Topology.degree topology h > Topology.degree topology !best then best := h
    done;
    !best
  in
  Array.iter
    (fun p ->
      let cost h =
        let partner_cost =
          List.fold_left
            (fun acc (other, count) ->
              if placement.(other) >= 0 then acc + (count * dist.(h).(placement.(other)))
              else acc)
            0 partners.(p)
        in
        (* Tie-break toward the centre to keep placements contiguous. *)
        (partner_cost, dist.(h).(centre), h)
      in
      let best = ref None in
      for h = 0 to n_hardware - 1 do
        if not used.(h) then
          match !best with
          | None -> best := Some (cost h)
          | Some c -> if cost h < c then best := Some (cost h)
      done;
      match !best with
      | Some (_, _, h) ->
        placement.(p) <- h;
        used.(h) <- true
      | None -> invalid_arg "Zulehner_like: program does not fit")
    order;
  placement

(* Hop-count routing = the noise-unaware reliability matrix under the
   TriQ router. *)
let schedule =
  Common.schedule ~name:"Zulehner"
    [
      Triq.Pass.reliability ~noise_aware:false;
      Triq.Pass.make ~name:"mapping" (fun s ->
          let placement = greedy_placement s.Triq.Pass.machine s.Triq.Pass.circuit in
          { s with Triq.Pass.initial_placement = placement });
      Triq.Pass.routing Triq.Pass.Config.Default;
    ]

let compile machine circuit = Triq.Pipeline.compile_schedule machine circuit schedule
