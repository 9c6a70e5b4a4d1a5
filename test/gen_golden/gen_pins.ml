(* Regenerates test/mapper_pins.ml: the exact outcome of the mapper's two
   hot loops, so a speed change to either must leave them byte-identical.

   - [search]: every Layout.Bb.solve problem of a bundled benchmark on a
     machine of the study that fits it, in both noise modes (day 0) and
     under both objectives: node count, proven_optimal, objective and
     log-product as %h, and placement.
   - [reliability]: a digest of the reliability closure (swap
     reliabilities and scores as %h, swap paths and max-product paths
     over all pairs) for every built-in machine plus a 13-ion chain and a
     6x12 grid, days 0-2, both noise modes.

   Usage: dune exec test/gen_golden/gen_pins.exe > test/mapper_pins.ml *)

module Machine = Device.Machine
module Machines = Device.Machines
module Reliability = Triq.Reliability

(* Same as test_layout's [test_search_pins]. *)
let search_row (m : Machine.t) (p : Bench_kit.Programs.t) noise_aware objective =
  let reliability =
    Reliability.of_calibration ~noise_aware m.Machine.topology (Machine.calibration m ~day:0)
  in
  let flat = Ir.Decompose.flatten p.Bench_kit.Programs.circuit in
  let r = Layout.Bb.solve (Triq.Placement.problem ~objective reliability flat) in
  ( r.Layout.Report.work.Layout.Report.search_nodes,
    r.Layout.Report.proven_optimal,
    Printf.sprintf "%h" r.Layout.Report.objective,
    Printf.sprintf "%h" r.Layout.Report.log_product,
    r.Layout.Report.placement )

(* Same as test_triq's [closure_digest]. *)
let closure_digest r =
  let b = Buffer.create 4096 in
  let path f = try List.iter (Printf.bprintf b "%d,") (f ()) with Not_found -> Buffer.add_char b '-' in
  let n = Reliability.n_qubits r in
  for a = 0 to n - 1 do
    for c = 0 to n - 1 do
      Printf.bprintf b "%h;" (Reliability.swap_reliability r a c);
      path (fun () -> Reliability.path_between r a c);
      if a <> c then begin
        Printf.bprintf b ";%h;" (Reliability.score r a c);
        path (fun () -> Reliability.swap_path r a c)
      end;
      Buffer.add_char b '\n'
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  print_string
    "(* Generated by test/gen_golden — the exact outcome of Layout.Bb.solve\n\
    \   and of the reliability closure. Regenerate with:\n\
    \     dune exec test/gen_golden/gen_pins.exe > test/mapper_pins.ml *)\n\n\
     let search =\n\
    \  [\n";
  List.iter
    (fun (m : Machine.t) ->
      List.iter
        (fun (p : Bench_kit.Programs.t) ->
          if Machine.fits m p.Bench_kit.Programs.circuit then
            List.iter
              (fun noise_aware ->
                List.iter
                  (fun objective ->
                    let nodes, proven, obj, log_product, placement =
                      search_row m p noise_aware objective
                    in
                    Printf.printf "    (%S, %S, %b, %S, %d, %b, %S, %S, [| %s |]);\n"
                      m.Machine.name p.Bench_kit.Programs.name noise_aware
                      (Layout.Problem.objective_name objective)
                      nodes proven obj log_product
                      (String.concat "; " (Array.to_list (Array.map string_of_int placement))))
                  [ Layout.Problem.Max_min; Layout.Problem.Product ])
              [ true; false ])
        Bench_kit.Programs.all)
    Machines.all;
  print_string "  ]\n\nlet reliability =\n  [\n";
  List.iter
    (fun (m : Machine.t) ->
      for day = 0 to 2 do
        List.iter
          (fun noise_aware ->
            let r =
              Reliability.of_calibration ~noise_aware m.Machine.topology
                (Machine.calibration m ~day)
            in
            Printf.printf "    (%S, %d, %b, %S);\n" m.Machine.name day noise_aware
              (closure_digest r))
          [ true; false ]
      done)
    (Machines.all @ Machines.extended @ [ Machines.ion_trap_chain 13; Machines.bristlecone 6 12 ]);
  print_string "  ]\n"
