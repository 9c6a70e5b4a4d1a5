(* Cross-platform compilation: the same source program compiled for all
   seven machines of the study — two qubit technologies, three vendors,
   three executable formats — through the one shared toolflow.

   This is the paper's central capability: device characteristics are
   compiler *inputs*, so retargeting means swapping the machine
   description, not the compiler.

   Run with: dune exec examples/cross_platform.exe *)

let program = Bench_kit.Programs.toffoli

let () =
  Printf.printf "Benchmark: %s — %s\n\n" program.Bench_kit.Programs.name
    program.Bench_kit.Programs.description;
  List.iter
    (fun machine ->
      if Device.Machine.fits machine program.Bench_kit.Programs.circuit then begin
        let compiled =
          Triq.Pipeline.compile_level machine program.Bench_kit.Programs.circuit
            ~level:Triq.Pipeline.OneQOptCN
        in
        let outcome = Sim.Runner.simulate compiled program.Bench_kit.Programs.spec in
        Printf.printf
          "%-8s %-12s  2Q=%2d  pulses=%3d  swaps=%d  ESP=%.3f  success=%.3f\n"
          machine.Device.Machine.name
          (Backend.Emit.format_name compiled)
          compiled.Triq.Compiled.two_q_count compiled.Triq.Compiled.pulse_count
          compiled.Triq.Compiled.swap_count compiled.Triq.Compiled.esp
          outcome.Sim.Runner.success_rate
      end
      else
        Printf.printf "%-8s (program does not fit)\n" machine.Device.Machine.name)
    Device.Machines.all;

  (* Show the three executable formats side by side for the smallest
     machine of each vendor. *)
  List.iter
    (fun machine ->
      let compiled =
        Triq.Pipeline.compile_level machine program.Bench_kit.Programs.circuit
          ~level:Triq.Pipeline.OneQOptCN
      in
      Printf.printf "\n--- %s (%s) ---\n%s"
        machine.Device.Machine.name
        (Backend.Emit.format_name compiled)
        (Backend.Emit.executable compiled))
    [ Device.Machines.ibmq5; Device.Machines.agave; Device.Machines.umdti ]
