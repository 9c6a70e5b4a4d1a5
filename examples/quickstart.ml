(* Quickstart: compile a small program for a real machine model, look at
   the generated OpenQASM, and measure its success rate under the
   machine's calibrated noise.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Write a program. Either build IR directly, or parse Scaffold
     source; here we use the Scaffold front end. *)
  let source =
    {|
      // Bernstein-Vazirani, hidden string 111.
      module main() {
        qbit q[4];
        X(q[3]);
        for i in 0..4 { H(q[i]); }
        for i in 0..3 { CNOT(q[i], q[3]); }
        for i in 0..3 { H(q[i]); }
        for i in 0..3 { measure(q[i]); }
      }
    |}
  in
  let program = Scaffold.Lower.compile_string source in
  Format.printf "Program IR:@\n%a@\n" Ir.Circuit.pp program.Scaffold.Lower.circuit;

  (* 2. Pick a machine and compile with full optimization (Table 1's
     TriQ-1QOptCN: 1Q coalescing + communication + noise adaptivity). *)
  let machine = Device.Machines.ibmq5 in
  let compiled =
    Triq.Pipeline.compile_level machine program.Scaffold.Lower.circuit
      ~level:Triq.Pipeline.OneQOptCN
  in
  Printf.printf "Compiled for %s: %d 2Q gates, %d pulses, %d swaps, ESP %.3f\n\n"
    machine.Device.Machine.name compiled.Triq.Compiled.two_q_count
    compiled.Triq.Compiled.pulse_count compiled.Triq.Compiled.swap_count
    compiled.Triq.Compiled.esp;

  (* 3. Emit the vendor executable (OpenQASM for IBM machines). *)
  let executable = Backend.Emit.executable compiled in
  Printf.printf "Generated %s:\n%s\n"
    (Backend.Emit.format_name compiled)
    executable;

  (* 4. Execute on the noisy device model and score against the known
     answer (the hidden string). *)
  let spec = Ir.Spec.deterministic program.Scaffold.Lower.measured "111" in
  let outcome = Sim.Runner.simulate compiled spec in
  Printf.printf "Success rate on %s: %.3f (%d trials)\n"
    machine.Device.Machine.name outcome.Sim.Runner.success_rate
    outcome.Sim.Runner.trials;
  List.iteri
    (fun i (bits, n) ->
      if i < 4 then Printf.printf "  %s: %d\n" bits n)
    outcome.Sim.Runner.counts
