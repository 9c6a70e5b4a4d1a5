module W = Writer

(* [op w name angles qs] writes "name(a,b) q[i],q[j];". *)
let op w name angles qs =
  W.str w name;
  List.iteri (fun i a -> W.str w (if i = 0 then "(" else ","); W.angle w a) angles;
  if angles <> [] then W.str w ")";
  List.iteri (fun i q -> W.str w (if i = 0 then " q[" else ",q["); W.int w q; W.str w "]") qs;
  W.str w ";\n"

(* An executable uses IBM's software-visible set (u1/u2/u3/cx + measure);
   a [portable] program also uses the rest of qelib1 and decomposes the
   gates qelib1 lacks into it. *)
let rec gate w ~portable cbit (g : Ir.Gate.t) =
  let op = op w and gate = gate w ~portable cbit in
  match g with
  | One (U1 l, a) -> op "u1" [ l ] [ a ]
  | One (U2 (p, l), a) -> op "u2" [ p; l ] [ a ]
  | One (U3 (t, p, l), a) -> op "u3" [ t; p; l ] [ a ]
  | Two (Cnot, a, b) -> op "cx" [] [ a; b ]
  | Measure a ->
    W.str w "measure q["; W.int w a; W.str w "] -> c["; W.int w !cbit; W.str w "];\n";
    incr cbit
  | _ when not portable ->
    invalid_arg
      (Printf.sprintf "Qasm_emit: gate %s is not IBM software-visible" (Ir.Gate.to_string g))
  | One (X, a) -> op "x" [] [ a ]
  | One (Y, a) -> op "y" [] [ a ]
  | One (Z, a) -> op "z" [] [ a ]
  | One (H, a) -> op "h" [] [ a ]
  | One (S, a) -> op "s" [] [ a ]
  | One (Sdg, a) -> op "sdg" [] [ a ]
  | One (T, a) -> op "t" [] [ a ]
  | One (Tdg, a) -> op "tdg" [] [ a ]
  | One (Rx t, a) -> op "rx" [ t ] [ a ]
  | One (Ry t, a) -> op "ry" [ t ] [ a ]
  | One (Rz t, a) -> op "rz" [ t ] [ a ]
  | One (Rxy (t, p), a) ->
    (* Rxy(t, p) = Rz(p) . Rx(t) . Rz(-p) as a matrix product: apply
       Rz(-p) first in circuit order. *)
    gate (One (Rz (-.p), a));
    gate (One (Rx t, a));
    gate (One (Rz p, a))
  | Two (Cz, a, b) -> op "cz" [] [ a; b ]
  | Two (Swap, a, b) -> op "swap" [] [ a; b ]
  | Two (Xx chi, a, b) -> List.iter gate (Ir.Decompose.xx_gates chi a b)
  | Two (Iswap, a, b) -> List.iter gate (Ir.Decompose.iswap a b)
  | Ccx (a, b, t) -> op "ccx" [] [ a; b; t ]
  | Cswap (c, a, b) -> op "cswap" [] [ c; a; b ]

let render ~portable ~n_qubits name (c : Ir.Circuit.t) =
  let w = W.start "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// " name in
  W.str w "qreg q["; W.int w n_qubits; W.str w "];\n";
  let n = Ir.Circuit.measure_count c in
  if n > 0 then (W.str w "creg c["; W.int w n; W.str w "];\n");
  let cbit = ref 0 in
  List.iter (gate w ~portable cbit) c.Ir.Circuit.gates;
  W.contents w

let emit_circuit ~n_qubits ~name c = render ~portable:false ~n_qubits name c

let emit (compiled : Triq.Compiled.t) =
  let machine = compiled.Triq.Compiled.machine in
  if machine.Device.Machine.basis <> Device.Gateset.Ibm_visible
  then invalid_arg "Qasm_emit.emit: executable is not in IBM form";
  render ~portable:false ~n_qubits:(Device.Machine.n_qubits machine) (W.target compiled)
    compiled.Triq.Compiled.hardware

let emit_program ~name (c : Ir.Circuit.t) =
  render ~portable:true ~n_qubits:c.Ir.Circuit.n_qubits name c
