module W = Writer

let emit_circuit ~name (c : Ir.Circuit.t) =
  let w = W.start "# " name in
  let n = Ir.Circuit.measure_count c in
  if n > 0 then (W.str w "DECLARE ro BIT["; W.int w n; W.str w "]\n");
  let cbit = ref 0 in
  List.iter
    (fun (g : Ir.Gate.t) ->
      (match g with
      | One (Rz t, q) -> W.str w "RZ("; W.angle w t; W.str w ")"; W.ints w [ q ]
      | One (Rx t, q) -> W.str w "RX("; W.angle w t; W.str w ")"; W.ints w [ q ]
      | Two (Cz, a, b) -> W.str w "CZ"; W.ints w [ a; b ]
      | Two (Iswap, a, b) -> W.str w "ISWAP"; W.ints w [ a; b ]
      | Measure q ->
        W.str w "MEASURE"; W.ints w [ q ]; W.str w " ro["; W.int w !cbit; W.str w "]";
        incr cbit
      | other ->
        invalid_arg
          (Printf.sprintf "Quil_emit: gate %s is not Rigetti software-visible"
             (Ir.Gate.to_string other)));
      W.str w "\n")
    c.Ir.Circuit.gates;
  W.contents w

let emit (compiled : Triq.Compiled.t) =
  (match compiled.Triq.Compiled.machine.Device.Machine.basis with
  | Device.Gateset.Rigetti_visible | Device.Gateset.Rigetti_parametric_visible -> ()
  | _ -> invalid_arg "Quil_emit.emit: executable is not in Rigetti form");
  emit_circuit ~name:(W.target compiled) compiled.Triq.Compiled.hardware
