(* Regenerates test/layout_golden.ml: a digest of Pipeline.compile_level
   output for every bundled benchmark x machine x level combination that
   fits. The digest covers every output-relevant field (hardware gates,
   placements, readout map, counts, ESP) but not timing or search-effort
   metadata, so it pins the *compiled artifact* across refactors.

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

let () =
  print_string
    "(* Generated by test/gen_golden — digests of Pipeline.compile_level \
     output\n\
    \   for bundled benchmarks x machines x levels. Regenerate with:\n\
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
              (fun level ->
                let r =
                  Triq.Pipeline.compile_level m p.Bench_kit.Programs.circuit
                    ~level
                in
                Printf.printf "    (%S, %S, %S, %S);\n" m.Device.Machine.name
                  p.Bench_kit.Programs.name
                  (Triq.Pass.level_name level)
                  (digest r))
              Triq.Pipeline.all_levels)
        Bench_kit.Programs.all)
    Device.Machines.all;
  print_string "  ]\n"
