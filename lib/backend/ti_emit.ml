module W = Writer

(* Mnemonics are padded to four columns, less the space before operands. *)
let emit_circuit ~name (c : Ir.Circuit.t) =
  let w = W.start "; " name in
  List.iter
    (fun (g : Ir.Gate.t) ->
      (match g with
      | One (Rxy (theta, phi), q) -> W.str w "R  "; W.ints w [ q ]; W.angles w [ theta; phi ]
      | One (Rz lambda, q) -> W.str w "RZ "; W.ints w [ q ]; W.angles w [ lambda ]
      | Two (Xx chi, a, b) -> W.str w "XX "; W.ints w [ a; b ]; W.angles w [ chi ]
      | Measure q -> W.str w "MEAS"; W.ints w [ q ]
      | other ->
        invalid_arg
          (Printf.sprintf "Ti_emit: gate %s is not UMD software-visible"
             (Ir.Gate.to_string other)));
      W.str w "\n")
    c.Ir.Circuit.gates;
  W.contents w

let emit (compiled : Triq.Compiled.t) =
  if compiled.Triq.Compiled.machine.Device.Machine.basis <> Device.Gateset.Umd_visible
  then invalid_arg "Ti_emit.emit: executable is not in UMD form";
  emit_circuit ~name:(W.target compiled) compiled.Triq.Compiled.hardware
