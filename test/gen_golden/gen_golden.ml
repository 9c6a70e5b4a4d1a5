(* Regenerates test/layout_golden.ml: a digest of the compiled executable
   for every bundled benchmark x machine x compiler combination that fits.
   The compilers are the four TriQ levels with the default router, the
   top level with the lookahead router, and the Qiskit-like (seed 1),
   Quil-like and Zulehner-like baselines, so every router is pinned. The
   digest covers every output-relevant field (hardware gates, placements,
   readout map, counts, ESP) but not timing or search-effort metadata, so
   it pins the *compiled artifact* across refactors.

   Usage: dune exec test/gen_golden/gen_golden.exe > test/layout_golden.ml *)

let digest (r : Triq.Compiled.t) =
  let payload =
    ( r.Triq.Compiled.hardware.Ir.Circuit.gates,
      r.Triq.Compiled.hardware.Ir.Circuit.n_qubits,
      r.Triq.Compiled.initial_placement,
      r.Triq.Compiled.final_placement,
      r.Triq.Compiled.readout_map,
      r.Triq.Compiled.swap_count,
      r.Triq.Compiled.two_q_count,
      r.Triq.Compiled.pulse_count,
      r.Triq.Compiled.flipped_cnots,
      r.Triq.Compiled.esp )
  in
  Digest.to_hex (Digest.string (Marshal.to_string payload []))

(* Same table as test_layout's [compile_row]. *)
let compilers =
  List.map
    (fun level ->
      (Triq.Pass.level_name level, fun m c -> Triq.Pipeline.compile_level m c ~level))
    Triq.Pipeline.all_levels
  @ [
      ( "TriQ-1QOptCN+lookahead",
        fun m c ->
          Triq.Pipeline.compile_level
            ~config:(Triq.Pass.Config.make ~router:Triq.Pass.Config.Lookahead ())
            m c ~level:Triq.Pass.OneQOptCN );
      ("Qiskit", fun m c -> Baselines.Qiskit_like.compile ~seed:1 m c);
      ("Quil", fun m c -> Baselines.Quil_like.compile m c);
      ("Zulehner", fun m c -> Baselines.Zulehner_like.compile m c);
    ]

let () =
  print_string
    "(* Generated by test/gen_golden — digests of the compiled executable for\n\
    \   bundled benchmarks x machines x compilers (TriQ levels, lookahead\n\
    \   router, baselines). Regenerate with:\n\
    \     dune exec test/gen_golden/gen_golden.exe > test/layout_golden.ml *)\n\n\
     let entries =\n\
    \  [\n";
  List.iter
    (fun (m : Device.Machine.t) ->
      List.iter
        (fun (p : Bench_kit.Programs.t) ->
          let n = p.Bench_kit.Programs.circuit.Ir.Circuit.n_qubits in
          if n <= Device.Machine.n_qubits m then
            List.iter
              (fun (name, compile) ->
                let r = compile m p.Bench_kit.Programs.circuit in
                Printf.printf "    (%S, %S, %S, %S);\n" m.Device.Machine.name
                  p.Bench_kit.Programs.name name (digest r))
              compilers)
        Bench_kit.Programs.all)
    Device.Machines.all;
  print_string "  ]\n"
