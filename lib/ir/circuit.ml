type t = { n_qubits : int; gates : Gate.t list }

let max_qubits = 1024

let check_register ~layer ~line ~used name size =
  if size > max_qubits - used then
    Diag.invalid ~rule:"circuit.bounds" ~layer ~loc:(Diag.Line line)
      "register %s[%d] takes the program past %d qubits" name size max_qubits

let max_gates = 1_000_000

let check_gates ~layer ~line count =
  if count > max_gates then
    Diag.invalid ~rule:"circuit.bounds" ~layer ~loc:(Diag.Line line)
      "program expands past %d gates" max_gates

let validate n gates =
  if n <= 0 then invalid_arg "Circuit.create: n_qubits must be positive";
  List.iter
    (fun g ->
      if not (Gate.valid_on n g) then
        invalid_arg
          (Printf.sprintf "Circuit.create: invalid gate %s on %d qubits"
             (Gate.to_string g) n))
    gates

let create n_qubits gates =
  validate n_qubits gates;
  { n_qubits; gates }

let empty n = create n []

let append c gates = create c.n_qubits (c.gates @ gates)

let concat a b =
  if a.n_qubits <> b.n_qubits then invalid_arg "Circuit.concat: qubit count mismatch";
  { a with gates = a.gates @ b.gates }

let map_qubits ~n_qubits f c =
  create n_qubits (List.map (Gate.map_qubits f) c.gates)

let gate_count c = List.length c.gates

let count p c = List.length (List.filter p c.gates)

let one_q_count c = count (function Gate.One _ -> true | _ -> false) c
let two_q_count c = count Gate.is_two_qubit c
let measure_count c = count Gate.is_measure c

let sorted_unique l = List.sort_uniq compare l

let used_qubits c = sorted_unique (List.concat_map Gate.qubits c.gates)

let measured_qubits c =
  sorted_unique
    (List.filter_map (function Gate.Measure q -> Some q | _ -> None) c.gates)

let body c = { c with gates = List.filter (fun g -> not (Gate.is_measure g)) c.gates }

let measure_all c qs = append c (List.map (fun q -> Gate.Measure q) qs)

let compact c =
  let used = used_qubits c in
  let mapping = List.mapi (fun i q -> (q, i)) used in
  let rename q =
    match List.assoc_opt q mapping with
    | Some i -> i
    | None -> invalid_arg "Circuit.compact: unknown qubit"
  in
  let n = max 1 (List.length used) in
  (map_qubits ~n_qubits:n rename c, mapping)

let equal a b =
  a.n_qubits = b.n_qubits
  && List.length a.gates = List.length b.gates
  && List.for_all2 Gate.equal a.gates b.gates

let pp fmt c =
  Format.fprintf fmt "circuit(%d qubits):@\n" c.n_qubits;
  List.iter (fun g -> Format.fprintf fmt "  %a@\n" Gate.pp g) c.gates
