(* Pulse-level lowering (Section 7 of the paper): after gate-level
   compilation, drive the stack one layer further down — to timed pulse
   schedules in each vendor's control vocabulary. Virtual-Z rotations
   become zero-duration frame changes; IBM U gates become DRAG X90
   pulses; CNOTs become echoed cross-resonance sequences; trapped-ion
   gates become Raman tones and Moelmer-Soerensen interactions.

   Run with: dune exec examples/pulse_level.exe *)

let () =
  let program = Bench_kit.Programs.hidden_shift 2 in
  Printf.printf "Benchmark: %s\n" program.Bench_kit.Programs.name;
  List.iter
    (fun machine ->
      let compiled =
        Triq.Pipeline.compile_level machine program.Bench_kit.Programs.circuit
          ~level:Triq.Pipeline.OneQOptCN
      in
      let schedule = Pulse.Lower.of_compiled compiled in
      Printf.printf
        "\n=== %s ===\n%d gate-level pulses -> %d physical pulses, %d frame changes, %.1f us\n\n"
        machine.Device.Machine.name compiled.Triq.Compiled.pulse_count
        (Pulse.Schedule.play_count schedule)
        (Pulse.Schedule.frame_change_count schedule)
        (Pulse.Schedule.duration_ns schedule /. 1000.0);
      print_string (Pulse.Emit.text schedule))
    [ Device.Machines.ibmq5; Device.Machines.agave; Device.Machines.umdti ];
  print_newline ();
  print_endline "OpenPulse-style JSON for the IBM schedule:";
  let compiled =
    Triq.Pipeline.compile_level Device.Machines.ibmq5
      program.Bench_kit.Programs.circuit ~level:Triq.Pipeline.OneQOptCN
  in
  print_string (Pulse.Emit.openpulse_json (Pulse.Lower.of_compiled compiled))
