(* The one match on the gate interface: a new vendor is one more row. *)
let vendor (compiled : Triq.Compiled.t) =
  match compiled.Triq.Compiled.machine.Device.Machine.basis with
  | Device.Gateset.Ibm_visible -> ("OpenQASM 2.0", Qasm_emit.emit)
  | Device.Gateset.Rigetti_visible | Device.Gateset.Rigetti_parametric_visible ->
    ("Quil", Quil_emit.emit)
  | Device.Gateset.Umd_visible -> ("UMD TI ASM", Ti_emit.emit)

let executable compiled = (snd (vendor compiled)) compiled
let format_name compiled = fst (vendor compiled)
