(* Noise-adaptive recompilation: IBM machines are recalibrated daily and
   their error rates move by large factors (Figure 3). This example
   compiles the same benchmark against five different calibration days,
   with and without noise awareness, and shows that (a) recompiling
   against fresh calibration data keeps success high, and (b) a
   noise-unaware executable's quality is at the mercy of the day's noise.

   Run with: dune exec examples/noise_adaptive.exe *)

let () =
  let machine = Device.Machines.ibmq14 in
  let program = Bench_kit.Programs.hidden_shift 4 in
  Printf.printf "%s on %s, five calibration days\n\n"
    program.Bench_kit.Programs.name machine.Device.Machine.name;
  Printf.printf "%-5s  %-22s  %-22s\n" "Day" "TriQ-1QOptC (unaware)" "TriQ-1QOptCN (aware)";
  let rates_c = ref [] and rates_cn = ref [] in
  for day = 0 to 4 do
    let success level =
      let compiled =
        Triq.Pipeline.compile_level ~config:(Triq.Pass.Config.make ~day ()) machine
          program.Bench_kit.Programs.circuit ~level
      in
      let outcome =
        Sim.Runner.simulate compiled
          program.Bench_kit.Programs.spec
      in
      outcome.Sim.Runner.success_rate
    in
    let c = success Triq.Pipeline.OneQOptC in
    let cn = success Triq.Pipeline.OneQOptCN in
    rates_c := c :: !rates_c;
    rates_cn := cn :: !rates_cn;
    Printf.printf "%-5d  %-22.3f  %-22.3f\n" day c cn
  done;
  Printf.printf "\nmean: unaware %.3f, aware %.3f (%.2fx)\n"
    (Mathkit.Stats.mean !rates_c)
    (Mathkit.Stats.mean !rates_cn)
    (Mathkit.Stats.mean !rates_cn /. Mathkit.Stats.mean !rates_c);

  (* The placements actually differ day to day: print where the noise-
     aware mapper put the program each day. *)
  Printf.printf "\nNoise-aware placements per day (program qubit -> hardware qubit):\n";
  for day = 0 to 4 do
    let compiled =
      Triq.Pipeline.compile_level ~config:(Triq.Pass.Config.make ~day ()) machine
        program.Bench_kit.Programs.circuit ~level:Triq.Pipeline.OneQOptCN
    in
    let pl = compiled.Triq.Compiled.initial_placement in
    Printf.printf "  day %d: %s\n" day
      (String.concat ", "
         (List.mapi (fun p h -> Printf.sprintf "%d->%d" p h) (Array.to_list pl)))
  done
