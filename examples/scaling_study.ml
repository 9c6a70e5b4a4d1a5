(* Scaling study (Section 6.5): compile quantum-supremacy-style circuits
   for Bristlecone-grid devices from 16 up to 72 qubits — the largest
   announced NISQ configuration at the time of the paper — and report
   toolflow runtime. The mapper stays fast because it only creates work
   proportional to the number of *distinct* 2Q pairs, not gate count.

   Run with: dune exec examples/scaling_study.exe *)

let () =
  Printf.printf "%-6s %-7s %-10s %-10s %-12s %-10s\n" "Grid" "Qubits" "2Q (IR)"
    "2Q (hw)" "Swaps" "Compile(s)";
  List.iter
    (fun (rows, cols, depth) ->
      let machine = Device.Machines.bristlecone rows cols in
      let circuit =
        Bench_kit.Supremacy.circuit ~seed:42 ~rows ~cols ~depth
      in
      let t0 = Sys.time () in
      let compiled =
        Triq.Pipeline.compile_level
          ~config:(Triq.Pass.Config.make ~node_budget:20_000 ())
          machine circuit
          ~level:Triq.Pipeline.OneQOptCN
      in
      Printf.printf "%-6s %-7d %-10d %-10d %-12d %-10.3f\n"
        (Printf.sprintf "%dx%d" rows cols)
        (rows * cols)
        (Bench_kit.Supremacy.two_q_count circuit)
        compiled.Triq.Compiled.two_q_count compiled.Triq.Compiled.swap_count
        (Sys.time () -. t0))
    [
      (4, 4, 16); (5, 5, 16); (6, 6, 16); (6, 9, 16); (6, 12, 16); (6, 12, 128);
    ];
  Printf.printf
    "\nThe 6x12 grid at depth 128 is the paper's largest configuration\n\
     (72 qubits, ~2000 two-qubit gates).\n"
