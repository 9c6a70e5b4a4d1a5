open Ir.Gate

let cancels g1 g2 =
  match (g1, g2) with
  | Two (Cnot, a1, b1), Two (Cnot, a2, b2) -> a1 = a2 && b1 = b2
  | Two (Cz, a1, b1), Two (Cz, a2, b2) | Two (Swap, a1, b1), Two (Swap, a2, b2) ->
    (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2)
  | _ -> false

let one_pass gates =
  (* out is the reversed emitted prefix; last.(q) is the position (from the
     end of out) of the most recent survivor touching q, or -1. A new 2Q
     gate cancels the head of out when the head is its inverse and neither
     operand was touched since the head was emitted — i.e. both operands'
     last gate *is* the head. *)
  let changed = ref false in
  let rec step out = function
    | [] -> List.rev out
    | g :: rest -> (
      match (g, out) with
      | Two _, prev :: out_rest when cancels prev g ->
        changed := true;
        step out_rest rest
      | _ ->
        (* A gate sharing a qubit with the head blocks cancellation of the
           head, which is handled implicitly: once a non-cancelling gate
           with an overlapping operand is emitted it becomes the new head
           for those qubits. However a gate on *disjoint* qubits would
           wrongly block head-cancellation here; to keep the pass simple
           and sound we only cancel literally adjacent pairs and iterate
           with commuting reorder below. *)
        step (g :: out) rest)
  in
  let result = step [] gates in
  (result, !changed)

(* Bubble disjoint gates: stable-partition adjacent gates so that a 2Q gate
   can meet its inverse. We do a simple sweep moving each 2Q gate left past
   gates acting on disjoint qubits; combined with [one_pass] to a fixed
   point this catches the routing-induced patterns. *)
let bubble gates =
  let arr = Array.of_list gates in
  let n = Array.length arr in
  let changed = ref false in
  for i = 1 to n - 1 do
    let g = arr.(i) in
    if Ir.Gate.is_two_qubit g then begin
      let qs = Ir.Gate.qubits g in
      let j = ref i in
      let blocked = ref false in
      while (not !blocked) && !j > 0 do
        let prev = arr.(!j - 1) in
        let disjoint =
          List.for_all (fun q -> not (List.mem q (Ir.Gate.qubits prev))) qs
        in
        if disjoint then begin
          arr.(!j) <- prev;
          arr.(!j - 1) <- g;
          changed := true;
          decr j
        end
        else blocked := true
      done
    end
  done;
  (Array.to_list arr, !changed)

let cancel_two_q (c : Ir.Circuit.t) =
  let rec fixpoint gates fuel =
    if fuel = 0 then gates
    else begin
      let gates, c1 = one_pass gates in
      let gates, c2 = bubble gates in
      if c1 || c2 then
        let gates, c3 = one_pass gates in
        if c3 || c2 then fixpoint gates (fuel - 1) else gates
      else gates
    end
  in
  Ir.Circuit.create c.Ir.Circuit.n_qubits (fixpoint c.Ir.Circuit.gates 32)
