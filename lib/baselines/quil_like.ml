module Machine = Device.Machine
module Topology = Device.Topology

let route machine ~placement (c : Ir.Circuit.t) =
  let topology = machine.Machine.topology in
  let n_hardware = Topology.n_qubits topology in
  let out = ref [] in
  let swaps = ref 0 in
  let emit g = out := g :: !out in
  (* Home positions never change: swap in, perform the gate, swap out. *)
  let route_two kind a b =
    let ha = placement.(a) and hb = placement.(b) in
    if Topology.coupled topology ha hb then emit (Ir.Gate.Two (kind, ha, hb))
    else begin
      let path = Topology.shortest_path topology ha hb in
      (* Walk the control up to the neighbour of the target. *)
      let rec swap_in acc = function
        | u :: (v :: rest2 as rest) when rest2 <> [] ->
          emit (Ir.Gate.Two (Ir.Gate.Swap, u, v));
          incr swaps;
          swap_in ((u, v) :: acc) rest
        | [ t'; _target ] -> (t', acc)
        | _ -> failwith "Quil_like: malformed path"
      in
      let t', undo = swap_in [] path in
      emit (Ir.Gate.Two (kind, t', hb));
      List.iter
        (fun (u, v) ->
          emit (Ir.Gate.Two (Ir.Gate.Swap, u, v));
          incr swaps)
        undo
    end
  in
  List.iter
    (fun g ->
      match (g : Ir.Gate.t) with
      | One (k, p) -> emit (Ir.Gate.One (k, placement.(p)))
      | Measure p -> emit (Ir.Gate.Measure placement.(p))
      | Two (kind, a, b) -> route_two kind a b
      | Ccx _ | Cswap _ -> invalid_arg "Quil_like: circuit not flattened")
    c.Ir.Circuit.gates;
  (Ir.Circuit.create n_hardware (List.rev !out), !swaps)

let compile ?(day = 0) machine circuit =
  if not (Machine.fits machine circuit) then
    invalid_arg "Quil_like.compile: program does not fit";
  let started_at = Sys.time () in
  let state, front_times = Common.start machine ~day circuit in
  let flat = state.Triq.Pass.circuit in
  let placement =
    Triq.Placement.trivial ~n_program:flat.Ir.Circuit.n_qubits
      ~n_hardware:(Machine.n_qubits machine)
  in
  let routed, swap_count = route machine ~placement flat in
  Common.finalize ~compiler:"Quil" ~routed ~initial_placement:placement
    ~final_placement:(Array.copy placement) ~swap_count ~started_at ~front_times
    state
