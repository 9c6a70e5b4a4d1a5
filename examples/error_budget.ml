(* Error-budget walkthrough: where does a program's success probability
   go, and what does each optimization level buy back?

   For one benchmark on one machine this prints the circuit, then for
   every optimization level the ESP decomposed into 2Q-gate, 1Q-pulse and
   readout survival — making the paper's "2Q and RO operations dominate"
   observation (Section 4.2) quantitative per program.

   Run with: dune exec examples/error_budget.exe *)

let () =
  let machine = Device.Machines.ibmq14 in
  let p = Bench_kit.Programs.bv 6 in
  Printf.printf "%s on %s\n\n" p.Bench_kit.Programs.name
    machine.Device.Machine.name;
  Printf.printf "Program circuit:\n%s\n"
    (Ir.Draw.render p.Bench_kit.Programs.circuit);
  Printf.printf "%-14s %8s %10s %10s %10s %10s\n" "Level" "2Q" "2Q surv"
    "1Q surv" "RO surv" "ESP";
  List.iter
    (fun level ->
      let compiled =
        Triq.Pipeline.compile_level machine p.Bench_kit.Programs.circuit ~level
      in
      let budget = Triq.Compiled.budget_of compiled in
      Printf.printf "%-14s %8d %10.3f %10.3f %10.3f %10.3f\n"
        (Triq.Pass.level_name level)
        compiled.Triq.Compiled.two_q_count budget.Triq.Compiled.two_q
        budget.Triq.Compiled.one_q budget.Triq.Compiled.readout
        compiled.Triq.Compiled.esp)
    Triq.Pipeline.all_levels;
  print_newline ();
  (* Decompose the best executable's losses and check against measured
     success. *)
  let compiled =
    Triq.Pipeline.compile_level machine p.Bench_kit.Programs.circuit
      ~level:Triq.Pipeline.OneQOptCN
  in
  let outcome =
    Sim.Runner.simulate compiled p.Bench_kit.Programs.spec
  in
  let budget = Triq.Compiled.budget_of compiled in
  Printf.printf
    "TriQ-1QOptCN loses %.1f%% to 2Q gates, %.1f%% to 1Q pulses, %.1f%% to readout.\n"
    (100.0 *. (1.0 -. budget.Triq.Compiled.two_q))
    (100.0 *. (1.0 -. budget.Triq.Compiled.one_q))
    (100.0 *. (1.0 -. budget.Triq.Compiled.readout));
  Printf.printf "ESP %.3f vs measured success %.3f.\n" compiled.Triq.Compiled.esp
    outcome.Sim.Runner.success_rate
