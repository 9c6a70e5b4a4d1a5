type t = {
  k : int;
  gates : Ir.Gate.t array;
  compact : Ir.Gate.t array;
  readouts : int list;
  positions : int list;
}

let make (compiled : Triq.Compiled.t) ~measured =
  let hardware = compiled.Triq.Compiled.hardware in
  let used = Ir.Circuit.used_qubits hardware in
  (* Hardware qubit -> compact index, O(1); -1 for an untouched qubit. *)
  let index = Array.make (1 + List.fold_left max 0 used) (-1) in
  List.iteri (fun i q -> index.(q) <- i) used;
  let compact_of h = if h < Array.length index then index.(h) else -1 in
  (* A program qubit is measured when the executable reads it from a
     hardware qubit the circuit touches. *)
  let readouts =
    List.map
      (fun p ->
        match List.assoc_opt p compiled.Triq.Compiled.readout_map with
        | Some h when compact_of h >= 0 -> h
        | Some _ | None ->
          invalid_arg (Printf.sprintf "Sim.Binding: program qubit %d is not measured" p))
      measured
  in
  let gates =
    Array.of_list (List.filter (fun g -> not (Ir.Gate.is_measure g)) hardware.Ir.Circuit.gates)
  in
  {
    k = List.length used;
    gates;
    compact = Array.map (Ir.Gate.map_qubits (fun h -> index.(h))) gates;
    readouts;
    positions = List.map compact_of readouts;
  }

let flips t noise = Array.of_list (List.map (Noise.readout_flip_prob noise) t.readouts)

let readout t probs flips =
  Dist.to_strings (Dist.corrupt_readout (Dist.project probs t.k t.positions) flips)
