(* Custom devices end to end: the paper's thesis is that device
   characteristics are *inputs*, so supporting a brand-new machine means
   writing a description, not a compiler. This example

   1. defines a hypothetical 10-qubit ladder device in code,
   2. round-trips it through the JSON description format (what
      `triqc export` / `-m file.json` use),
   3. characterizes it with randomized benchmarking (recovering the error
      rates a lab would publish as calibration data),
   4. compiles and runs the benchmark suite on it,
   5. and compares two manufacturing variants of the same design.

   Run with: dune exec examples/custom_device.exe *)

let ladder ~name ~two_q_err ~seed =
  (* A 2x5 ladder: two rails with rungs. *)
  let rail = List.init 4 (fun i -> (i, i + 1)) in
  let edges =
    rail
    @ List.map (fun (a, b) -> (a + 5, b + 5)) rail
    @ List.init 5 (fun i -> (i, i + 5))
  in
  Device.Machine.create ~name ~basis:Device.Gateset.Rigetti_visible
    ~topology:(Device.Topology.create 10 edges ~directed:false)
    ~profile:
      {
        Device.Calibration.avg_one_q_err = 0.001;
        avg_two_q_err = two_q_err;
        avg_readout_err = 0.02;
        coherence_us = 60.0;
        one_q_time_us = 0.04;
        two_q_time_us = 0.2;
        spatial_sigma = 0.4;
        temporal_sigma = 0.25;
        two_q_scale = None;
      }
    ~seed

let () =
  let machine = ladder ~name:"Ladder10" ~two_q_err:0.02 ~seed:77 in

  (* The JSON description a user would commit next to their code. *)
  let json = Device.Machine_io.to_string machine in
  Printf.printf "Machine description (save as ladder10.json, pass as -m):\n%s\n" json;
  let machine = Device.Machine_io.of_string json in

  (* Characterize it the way a lab would. *)
  let rb1 = Characterize.Benchmarking.one_qubit machine ~day:0 ~qubit:0 in
  let rb2 = Characterize.Benchmarking.two_qubit machine ~day:0 ~a:0 ~b:1 in
  Printf.printf "Randomized benchmarking: 1Q error %.4f, 2Q error (0-1) %.4f\n\n"
    rb1.Characterize.Benchmarking.error_per_gate
    rb2.Characterize.Benchmarking.error_per_gate;

  (* Run the paper's benchmark suite on it. *)
  Printf.printf "%-10s %6s %8s %8s\n" "Benchmark" "2Q" "ESP" "success";
  List.iter
    (fun (p : Bench_kit.Programs.t) ->
      if Device.Machine.fits machine p.Bench_kit.Programs.circuit then begin
        let compiled =
          Triq.Pipeline.compile_level machine p.Bench_kit.Programs.circuit
            ~level:Triq.Pipeline.OneQOptCN
        in
        let outcome =
          Sim.Runner.simulate compiled
            p.Bench_kit.Programs.spec
        in
        Printf.printf "%-10s %6d %8.3f %8.3f\n" p.Bench_kit.Programs.name
          compiled.Triq.Compiled.two_q_count compiled.Triq.Compiled.esp
          outcome.Sim.Runner.success_rate
      end)
    Bench_kit.Programs.all;

  (* Same design, different manufacturing luck: only the seed differs. *)
  Printf.printf "\nManufacturing variants of the same design (BV6 success):\n";
  List.iter
    (fun seed ->
      let variant = ladder ~name:(Printf.sprintf "Ladder10-s%d" seed) ~two_q_err:0.02 ~seed in
      let p = Bench_kit.Programs.bv 6 in
      let compiled =
        Triq.Pipeline.compile_level variant p.Bench_kit.Programs.circuit
          ~level:Triq.Pipeline.OneQOptCN
      in
      let outcome =
        Sim.Runner.simulate compiled p.Bench_kit.Programs.spec
      in
      Printf.printf "  seed %3d: success %.3f (ESP %.3f)\n" seed
        outcome.Sim.Runner.success_rate compiled.Triq.Compiled.esp)
    [ 77; 78; 79; 80 ]
