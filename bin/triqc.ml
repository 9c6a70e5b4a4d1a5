(* triqc: the TriQ command-line compiler; 'triqc --help' lists the
   subcommands.

   Every subcommand goes through one front door: one resolver per named
   input (machine, level, router, validation mode, mapper), [target] for
   file + machine + level + day with the one fit check, and
   [expected_answer] for the program's spec. Each [run] is a [result]
   pipeline ending in [exit_code], the one place an error is printed.

   Observability: compile/simulate/sweep accept --trace FILE
   [--trace-format chrome|jsonl|text] to record one span per compiler
   pass (plus simulation blocks and pool activity) and write them out;
   subcommands with --json all print the shared Obs.Output envelope
   {"ok": bool, "command": ..., "data": ...} on one line. *)

open Cmdliner

let ( let* ) = Result.bind

(* [Ok c] exits [c]; [Error msg] prints "triqc: msg" and exits [code]:
   2 for lint, check, metrics and fuzz, whose findings already exit 1,
   and 1 for every other command. *)
let exit_code ?(code = 1) = function
  | Ok c -> c
  | Error msg ->
    Printf.eprintf "triqc: %s\n" msg;
    code

(* A name looked up in its module's table; the error lists the names. *)
let resolve ?(valid = "valid:") what of_string names s =
  match of_string s with
  | Some v -> Ok v
  | None ->
    Error (Printf.sprintf "unknown %s %S (%s %s)" what s valid (String.concat ", " names))

let resolve_level =
  resolve ~valid:"valid, case-insensitive:" "optimization level" Triq.Pass.level_of_string
    Triq.Pass.level_strings

let resolve_router =
  resolve "router" Triq.Pass.Config.router_of_string Triq.Pass.Config.router_names

let resolve_validation =
  resolve "validation mode" Triq.Pass.Config.validation_of_string
    Triq.Pass.Config.validation_names

let resolve_mapper =
  resolve ~valid:"expected" "mapper" Layout.Config.strategy_of_string
    Layout.Config.strategy_names

(* A machine is named either by a built-in name or by a JSON description
   file (the paper's device-characteristics-as-input design). *)
let resolve_machine spec =
  match Device.Machines.find spec with
  | Some m -> Ok m
  | None ->
    let looks_like_file =
      Filename.check_suffix spec ".json" || String.contains spec '/'
      || Sys.file_exists spec
    in
    if looks_like_file then begin
      try Ok (Device.Machine_io.of_file spec) with
      | Device.Machine_io.Error msg ->
        Error (Printf.sprintf "%s: invalid machine description: %s" spec msg)
      | Sys_error msg -> Error msg
    end
    else
      Error
        (Printf.sprintf "unknown machine %S (known: %s; or pass a .json description)"
           spec
           (String.concat ", "
              (List.map (fun m -> m.Device.Machine.name) Device.Machines.all)))

(* The level's named schedule, possibly edited by --passes/--disable-pass. *)
let build_schedule ~config ~level passes disabled =
  let* schedule =
    match passes with
    | None -> Ok (Triq.Pass.Schedule.of_level ~config level)
    | Some names ->
      Triq.Pass.Schedule.make ~config ~level
        (String.split_on_char ',' names
        |> List.map String.trim
        |> List.filter (fun s -> s <> ""))
  in
  List.fold_left
    (fun acc name ->
      let* schedule = acc in
      Triq.Pass.Schedule.disable schedule name)
    (Ok schedule) disabled

let compile_at config machine level (program : Scaffold.Lower.program) =
  Triq.Pipeline.compile_schedule ~config machine program.Scaffold.Lower.circuit
    (Triq.Pass.Schedule.of_level ~config level)

(* Programs come in as Scaffold source or (for re-optimizing existing
   vendor output) as OpenQASM 2.0. The file is read where a command first
   forces the program, once, whoever else needs it after. *)
let load_program path =
  lazy
    (try
      if Filename.check_suffix path ".qasm" then begin
        let parsed = Qasm.Frontend.parse_file path in
        Ok
          {
            Scaffold.Lower.circuit = parsed.Qasm.Frontend.circuit;
            measured = parsed.Qasm.Frontend.measured;
            qubit_names = parsed.Qasm.Frontend.qubit_names;
          }
      end
      else Ok (Scaffold.Lower.compile_file path)
    with
    | Scaffold.Parser.Error (msg, line, col) ->
      Error (Printf.sprintf "%s:%d:%d: parse error: %s" path line col msg)
    | Scaffold.Lower.Error (msg, line) ->
      Error (Printf.sprintf "%s:%d: error: %s" path line msg)
    | Qasm.Frontend.Error (msg, line) ->
      Error (Printf.sprintf "%s:%d: QASM error: %s" path line msg)
    | Sys_error msg -> Error msg)

let default_level = "1qoptcn"

(* Machine, level and program, resolved in that order, the one fit check,
   and the compile options for [day]. *)
let target ?(level = default_level) ?validate program machine_name day =
  let* machine = resolve_machine machine_name in
  let* level = resolve_level level in
  let* program = Lazy.force program in
  let circuit = program.Scaffold.Lower.circuit in
  if Device.Machine.fits machine circuit then
    Ok (machine, level, program, Triq.Pass.Config.make ~day ?validate ())
  else
    Error
      (Printf.sprintf "program needs %d qubits; %s has %d" circuit.Ir.Circuit.n_qubits
         machine.Device.Machine.name (Device.Machine.n_qubits machine))

(* The program's noiseless output over its measured qubits, as a spec. *)
let expected_answer (program : Scaffold.Lower.program) =
  let measured = program.Scaffold.Lower.measured in
  Ir.Spec.of_distribution measured
    (Sim.Runner.ideal_distribution (Ir.Circuit.body program.Scaffold.Lower.circuit) ~measured)

let needs_measure ?(purpose = "") (program : Scaffold.Lower.program) =
  if program.Scaffold.Lower.measured = [] then
    Error ("program has no measure statements" ^ purpose)
  else Ok ()

let machine_arg =
  let doc =
    "Target machine: a built-in name (IBMQ5, IBMQ14, IBMQ16, Agave, Aspen1, \
     Aspen3, UMDTI) or the path of a JSON machine description (see 'triqc export')."
  in
  Arg.(required & opt (some string) None & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let level_arg =
  let doc = "Optimization level: n, 1qopt, 1qoptc, 1qoptcn (Table 1)." in
  Arg.(value & opt string default_level & info [ "O"; "level" ] ~docv:"LEVEL" ~doc)

let day_arg =
  let doc = "Calibration day to compile against." in
  Arg.(value & opt int 0 & info [ "day" ] ~docv:"DAY" ~doc)

(* Evaluates to () after sizing the shared domain pool; subcommands that
   simulate or sweep thread this term in so -j takes effect before any
   parallel work starts. Results are bit-for-bit identical for every N. *)
let jobs_arg =
  let doc =
    "Number of domains for parallel trajectory simulation and sweeps \
     (default: the number of cores). Any value yields identical results; \
     only wall-clock time changes."
  in
  let setup = function
    | None -> ()
    | Some j when j >= 1 -> Parallel.Pool.set_default_jobs j
    | Some j ->
      exit (exit_code ~code:2 (Error (Printf.sprintf "--jobs expects a positive count, got %d" j)))
  in
  Term.(
    const setup
    $ Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let file_arg =
  let doc = "Scaffold source file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* --trace FILE [--trace-format FMT]: record spans around the command's
   work and write them out afterwards. Without --trace the span sink
   stays disabled and the instrumented hot paths are no-ops, so traced
   and untraced runs produce bit-identical command output. *)
let trace_args =
  let trace =
    let doc =
      "Record an execution trace (one span per compiler pass, plus \
       simulation-block and pool spans when simulating) and write it to \
       $(docv) on exit."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let fmt =
    let doc =
      "Trace format: chrome (a trace_event JSON document for \
       chrome://tracing or ui.perfetto.dev), jsonl (one JSON object per \
       span per line), or text (indented tree)."
    in
    Arg.(value & opt string "chrome" & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  Term.(const (fun file fmt -> (file, fmt)) $ trace $ fmt)

let with_trace (trace, fmt_name) k =
  match trace with
  | None -> k ()
  | Some path -> (
    match Obs.Export.format_of_string fmt_name with
    | None ->
      exit_code ~code:2
        (Error (Printf.sprintf "unknown trace format %S (valid: chrome, jsonl, text)" fmt_name))
    | Some fmt ->
      Obs.Span.enable ();
      let code = k () in
      Obs.Span.disable ();
      let rendered = Obs.Export.render fmt (Obs.Span.collected ()) in
      exit_code
        ~code:(if code = 0 then 1 else code)
        (try
           Out_channel.with_open_text path (fun oc -> output_string oc rendered);
           Ok code
         with Sys_error msg -> Error ("cannot write trace: " ^ msg)))

let print_stats (r : Triq.Compiled.t) =
  Printf.eprintf
    "; %s on %s (day %d): 2Q=%d, pulses=%d, swaps=%d, ESP=%.4f, compile=%.0fus\n"
    r.Triq.Compiled.compiler
    r.Triq.Compiled.machine.Device.Machine.name r.Triq.Compiled.day
    r.Triq.Compiled.two_q_count r.Triq.Compiled.pulse_count
    r.Triq.Compiled.swap_count r.Triq.Compiled.esp
    (r.Triq.Compiled.compile_time_s *. 1e6)

let compile_cmd =
  let router_arg =
    let doc = "SWAP-insertion router: default or lookahead (ablation extension)." in
    Arg.(value & opt string "default" & info [ "router" ] ~docv:"ROUTER" ~doc)
  in
  let peephole_arg =
    Arg.(
      value & flag
      & info [ "peephole" ]
          ~doc:
            "Add the 2Q peephole cancellation pass to the schedule (an extension, \
             not part of the paper's flow).")
  in
  let validate_arg =
    Arg.(
      value
      & opt ~vopt:(Some "shape") (some string) None
      & info [ "validate" ] ~docv:"MODE"
          ~doc:
            "Arm the pass-invariant validator during compilation: 'shape' \
             (structural rules; the default when --validate is given without a \
             value) or 'deep' (adds dataflow translation validation: readout \
             liveness and Clifford tableau equivalence after every pass).")
  in
  let mapper_arg =
    let doc =
      "Layout strategy for the mapping pass: 'bb' (branch-and-bound, the \
       default) or 'smt' (incremental SAT threshold search)."
    in
    Arg.(value & opt string "bb" & info [ "mapper" ] ~docv:"STRATEGY" ~doc)
  in
  let passes_arg =
    let doc =
      "Run exactly this comma-separated pass list instead of the level's named \
       schedule (canonical names from 'triqc passes')."
    in
    Arg.(value & opt (some string) None & info [ "passes" ] ~docv:"NAMES" ~doc)
  in
  let disable_arg =
    let doc = "Remove an optional pass from the schedule (repeatable)." in
    Arg.(value & opt_all string [] & info [ "disable-pass" ] ~docv:"NAME" ~doc)
  in
  let run file machine_name level day router_name mapper_name peephole validate passes
      disabled trace =
    with_trace trace @@ fun () ->
    exit_code
      (let* machine, level, program, _ = target ~level (load_program file) machine_name day in
       let* router = resolve_router router_name in
       let* mapper = resolve_mapper mapper_name in
       let* validate =
         Option.fold ~none:(Ok Triq.Pass.Config.Off) ~some:resolve_validation validate
       in
       let config = Triq.Pass.Config.make ~day ~router ~mapper ~peephole ~validate () in
       let* schedule = build_schedule ~config ~level passes disabled in
       let compiled =
         Triq.Pipeline.compile_schedule ~config machine program.Scaffold.Lower.circuit schedule
       in
       print_stats compiled;
       print_string (Backend.Emit.executable compiled);
       Ok 0)
  in
  let doc = "Compile a Scaffold program to a vendor executable." in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const run $ file_arg $ machine_arg $ level_arg $ day_arg $ router_arg
      $ mapper_arg $ peephole_arg $ validate_arg
      $ passes_arg $ disable_arg $ trace_args)

let passes_cmd =
  let run () =
    print_endline "Registered passes (canonical names; timing keys and validator tags):";
    List.iter
      (fun (name, about) ->
        let optional = if List.mem name Triq.Pass.optional_names then " [optional]" else "" in
        Printf.printf "  %-15s %s%s\n" name about optional)
      Triq.Pass.catalog;
    print_newline ();
    print_endline "Level schedules (Table 1; edit with --passes / --disable-pass):";
    List.iter
      (fun (s : Triq.Pass.Schedule.t) ->
        Printf.printf "  %-13s %s\n" s.Triq.Pass.Schedule.name
          (String.concat " > " (Triq.Pass.Schedule.pass_names s)))
      (Triq.Pass.Schedule.all ());
    0
  in
  let doc = "List the registered compiler passes and the named level schedules." in
  Cmd.v (Cmd.info "passes" ~doc) Term.(const run $ const ())

let simulate_cmd =
  let trials_arg =
    Arg.(value & opt int 8192 & info [ "trials" ] ~docv:"N" ~doc:"Shots per run.")
  in
  let trajectories_arg =
    Arg.(
      value & opt int 300
      & info [ "trajectories" ] ~docv:"N" ~doc:"Monte-Carlo noise trajectories.")
  in
  let backend_arg =
    let doc =
      "Simulation backend: $(b,auto) (default) runs Clifford-only circuits \
       on the polynomial-time stabilizer tableau and Clifford prefixes on a \
       tableau/statevector hybrid; $(b,statevector) forces the dense \
       backend; $(b,stabilizer) forces the tableau and rejects non-Clifford \
       circuits."
    in
    Arg.(
      value & opt string "auto" & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let no_fusion_arg =
    let doc =
      "Disable statevector gate fusion (1Q-run merging, diagonal batching, \
       permutation kernels) and execute gate by gate."
    in
    Arg.(value & flag & info [ "no-fusion" ] ~doc)
  in
  let run () file machine_name level day trials trajectories backend_name no_fusion trace =
    with_trace trace @@ fun () ->
    exit_code
      (let* machine, level, program, config = target ~level (load_program file) machine_name day in
       let* backend =
         Option.to_result
           ~none:
             (Printf.sprintf "unknown backend %S (expected auto, statevector or stabilizer)"
                backend_name)
           (Sim.Runner.Config.backend_of_string backend_name)
       in
       let* () = needs_measure program in
       let sim = Sim.Runner.Config.make ~trials ~trajectories ~backend ~fusion:(not no_fusion) () in
       let* () = Sim.Runner.Config.check sim in
       let compiled = compile_at config machine level program in
       print_stats compiled;
       let outcome = Sim.Runner.simulate ~config:sim compiled (expected_answer program) in
       Printf.printf "success rate: %.4f (%s)\n" outcome.Sim.Runner.success_rate
         (if outcome.Sim.Runner.dominant_correct then "correct answer dominates"
          else "FAILED: wrong answer dominates");
       Printf.printf "top outcomes:\n";
       (* Most shots first, ties by bitstring: [counts] comes in
          largest-remainder order, not by size. *)
       List.sort (fun (a, n) (b, m) -> compare (m, a) (n, b)) outcome.Sim.Runner.counts
       |> List.iteri (fun i (bits, n) ->
              if i < 8 then Printf.printf "  %s  %6d / %d\n" bits n outcome.Sim.Runner.trials);
       Ok 0)
  in
  let doc = "Compile and execute on the noisy device model." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ jobs_arg $ file_arg $ machine_arg $ level_arg $ day_arg
      $ trials_arg $ trajectories_arg $ backend_arg $ no_fusion_arg
      $ trace_args)

let sweep_cmd =
  let run () file machine_name day trace =
    with_trace trace @@ fun () ->
    exit_code
      (let* machine, _, program, config = target (load_program file) machine_name day in
       let* () = needs_measure ~purpose:" to score" program in
       Printf.printf "%-14s %6s %8s %6s %8s %10s\n" "Level" "2Q" "pulses" "swaps" "ESP"
         "success";
       let spec = expected_answer program in
       List.iter
         (fun level ->
           let compiled = compile_at config machine level program in
           let success =
             (* Only a deterministic answer has a success rate. *)
             match spec.Ir.Spec.expected with
             | [ (_, 1.0) ] ->
               Printf.sprintf "%.3f" (Sim.Runner.simulate compiled spec).Sim.Runner.success_rate
             | _ -> "n/a"
           in
           Printf.printf "%-14s %6d %8d %6d %8.4f %10s\n" (Triq.Pass.level_name level)
             compiled.Triq.Compiled.two_q_count compiled.Triq.Compiled.pulse_count
             compiled.Triq.Compiled.swap_count compiled.Triq.Compiled.esp success)
         Triq.Pipeline.all_levels;
       Ok 0)
  in
  let doc = "Compare all four optimization levels on one program (Table 1 sweep)." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(const run $ jobs_arg $ file_arg $ machine_arg $ day_arg $ trace_args)

let draw_cmd =
  let compiled_arg =
    Arg.(value & flag & info [ "compiled" ] ~doc:"Draw the compiled hardware circuit instead of the program IR.")
  in
  let run file machine_name level day compiled_view =
    exit_code
      (let* machine, level, program, config = target ~level (load_program file) machine_name day in
       if compiled_view then
         print_string
           (Ir.Draw.render (compile_at config machine level program).Triq.Compiled.hardware)
       else begin
         let labels =
           List.map fst
             (List.sort (fun (_, a) (_, b) -> compare a b) program.Scaffold.Lower.qubit_names)
         in
         print_string (Ir.Draw.render ~wire_labels:labels program.Scaffold.Lower.circuit)
       end;
       Ok 0)
  in
  let doc = "Draw a program (or its compiled form) as an ASCII circuit." in
  Cmd.v
    (Cmd.info "draw" ~doc)
    Term.(const run $ file_arg $ machine_arg $ level_arg $ day_arg $ compiled_arg)

let verify_cmd =
  let run file machine_name day =
    exit_code
      (let* machine, _, program, config = target (load_program file) machine_name day in
       let* () = needs_measure ~purpose:" to verify against" program in
       let failures =
         List.filter
           (fun level ->
             let result =
               Sim.Verify.check ~program:program.Scaffold.Lower.circuit
                 ~measured:program.Scaffold.Lower.measured
                 (compile_at config machine level program)
             in
             if result.Sim.Verify.equivalent then
               Printf.printf "%-14s OK   (noiseless outputs identical)\n"
                 (Triq.Pass.level_name level)
             else
               Printf.printf "%-14s FAIL (total variation %.6f)\n" (Triq.Pass.level_name level)
                 result.Sim.Verify.total_variation;
             not result.Sim.Verify.equivalent)
           Triq.Pipeline.all_levels
       in
       Ok (if failures = [] then 0 else 1))
  in
  let doc =
    "Verify that compilation preserves the program's semantics: compile at every \
     optimization level and compare noiseless outputs to the source program's."
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ file_arg $ machine_arg $ day_arg)

let convert_cmd =
  let run file =
    exit_code
      (let* program = Lazy.force (load_program file) in
       print_string
         (Backend.Qasm_emit.emit_program
            ~name:(Printf.sprintf "converted from %s" (Filename.basename file))
            program.Scaffold.Lower.circuit);
       Ok 0)
  in
  let doc = "Convert a program (Scaffold or QASM) to portable OpenQASM 2.0." in
  Cmd.v
    (Cmd.info "convert" ~doc)
    Term.(const run $ Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"))

let machines_cmd =
  let run () =
    List.iter
      (fun m -> Format.printf "%a@\n" Device.Machine.pp m)
      Device.Machines.all;
    0
  in
  let doc = "List the supported machines." in
  Cmd.v (Cmd.info "machines" ~doc) Term.(const run $ const ())

let info_cmd =
  let machine_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE" ~doc:"Machine name.")
  in
  let run machine_name day =
    exit_code
      (let* machine = resolve_machine machine_name in
       Format.printf "%a@\n" Device.Machine.pp machine;
       Format.printf "topology: %a@\n" Device.Topology.pp machine.Device.Machine.topology;
       let cal = Device.Machine.calibration machine ~day in
       Format.printf "calibration (day %d):@\n" day;
       Array.iteri
         (fun q e ->
           Format.printf "  q%d: 1Q err %.4f, RO err %.4f@\n" q e
             (Device.Calibration.readout_err cal q))
         cal.Device.Calibration.one_q;
       List.iter
         (fun ((a, b), e) -> Format.printf "  %d-%d: 2Q err %.4f@\n" a b e)
         cal.Device.Calibration.two_q;
       Ok 0)
  in
  let doc = "Describe a machine: topology and calibration data." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ machine_pos $ day_arg)

let pulse_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit OpenPulse-style JSON instead of the timing listing.")
  in
  let run file machine_name level day json =
    exit_code
      (let* machine, level, program, config = target ~level (load_program file) machine_name day in
       let compiled = compile_at config machine level program in
       print_stats compiled;
       let schedule = Pulse.Lower.of_compiled compiled in
       Printf.eprintf "; schedule: %d pulses, %d frame changes, %.1f us\n"
         (Pulse.Schedule.play_count schedule)
         (Pulse.Schedule.frame_change_count schedule)
         (Pulse.Schedule.duration_ns schedule /. 1000.0);
       print_string
         (if json then Pulse.Emit.openpulse_json schedule else Pulse.Emit.text schedule);
       Ok 0)
  in
  let doc = "Lower a Scaffold program all the way to a pulse schedule." in
  Cmd.v
    (Cmd.info "pulse" ~doc)
    Term.(const run $ file_arg $ machine_arg $ level_arg $ day_arg $ json_arg)

let characterize_cmd =
  let machine_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE" ~doc:"Machine name or JSON description.")
  in
  let run machine_name day =
    exit_code
      (let* machine = resolve_machine machine_name in
       let noise = Sim.Noise.of_day machine ~day in
       Printf.printf "Characterizing %s (day %d) by randomized benchmarking:\n\n"
         machine.Device.Machine.name day;
       Printf.printf "%-8s %12s %12s %12s\n" "Qubit" "1Q injected" "1Q recovered" "RO error";
       for q = 0 to Device.Machine.n_qubits machine - 1 do
         let injected = Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, q)) in
         let rb = Characterize.Benchmarking.one_qubit machine ~day ~qubit:q in
         let ro = Characterize.Benchmarking.readout machine ~day ~qubit:q in
         Printf.printf "%-8d %12.5f %12.5f %12.5f\n" q injected
           rb.Characterize.Benchmarking.error_per_gate ro.Characterize.Benchmarking.error
       done;
       Printf.printf "\n%-10s %12s %12s\n" "Coupling" "2Q injected" "2Q recovered";
       List.iter
         (fun (a, b) ->
           let injected = Sim.Noise.gate_error_prob noise (Ir.Gate.Two (Ir.Gate.Cnot, a, b)) in
           let rb = Characterize.Benchmarking.two_qubit machine ~day ~a ~b in
           Printf.printf "%-10s %12.5f %12.5f\n" (Printf.sprintf "%d-%d" a b) injected
             rb.Characterize.Benchmarking.error_per_gate)
         (Device.Topology.edges machine.Device.Machine.topology);
       Ok 0)
  in
  let doc = "Estimate a machine's error rates by randomized benchmarking." in
  Cmd.v (Cmd.info "characterize" ~doc) Term.(const run $ machine_pos $ day_arg)

let export_cmd =
  let machine_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE" ~doc:"Machine name.")
  in
  let run machine_name =
    exit_code
      (let* machine = resolve_machine machine_name in
       print_string (Device.Machine_io.to_string machine);
       Ok 0)
  in
  let doc = "Export a machine description as JSON (edit it, then pass the file as -m)." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ machine_pos)

(* lint and check: the optional target machine, its level and day,
   --all-levels and --json. *)
type target_opts = {
  machine : string option;
  level : string;
  day : int;
  all_levels : bool;
  json : bool;
}

let target_opts ~machine_doc ~json_doc =
  let machine =
    Arg.(value & opt (some string) None & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:machine_doc)
  in
  let all_levels =
    Arg.(
      value & flag
      & info [ "all-levels" ]
          ~doc:"With -m, validate every optimization level instead of just -O.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:json_doc) in
  Term.(
    const (fun machine level day all_levels json -> { machine; level; day; all_levels; json })
    $ machine $ level_arg $ day_arg $ all_levels $ json)

(* With -m, compile [program] at each selected level under [validate] and
   give [k] the program, the level and the executable or the pass that
   broke an invariant with its diagnostics. *)
let compile_levels ~validate k program opts =
  match opts.machine with
  | None -> Ok []
  | Some spec ->
    let* machine, level, program, config =
      target ~level:opts.level ~validate program spec opts.day
    in
    let levels = if opts.all_levels then Triq.Pipeline.all_levels else [ level ] in
    Ok
      (List.map
         (fun level ->
           k program level
             (match compile_at config machine level program with
             | compiled -> Ok compiled
             | exception Analysis.Diag.Violation (pass, diags) -> Error (pass, diags)))
         levels)

let lint_cmd =
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Add the dataflow lints (dead.gate, opt.missed) on the program, \
             and (with -m) upgrade the pass validator to deep translation \
             validation (live.mismatch, clifford.mismatch). 'triqc check' is \
             the analysis-first view of the same engine.")
  in
  let run file opts deep =
    exit_code ~code:2
      ((* Source-level lints: Scaffold gets the full source lints; QASM
          input must read through Qasm.Frontend, then skips straight to the
          compile-time checks. *)
       let* source_diags =
         try
           if Filename.check_suffix file ".qasm" then
             match Qasm.Frontend.parse_file file with
             | _ -> Ok []
             | exception Qasm.Frontend.Error (msg, line) ->
               Ok
                 [
                   Analysis.Diag.errorf ~rule:"qasm.parse" ~layer:"qasm"
                     ~loc:(Analysis.Diag.Line line) "%s" msg;
                 ]
           else Ok (Analysis.Scaffold_lint.lint_file file)
         with Sys_error msg -> Error msg
       in
       (* Dataflow lints over the program itself (--deep, any input kind). *)
       let program = load_program file in
       let* dataflow_diags =
         if (not deep) || Analysis.Diag.has_errors source_diags then Ok []
         else
           let* program = Lazy.force program in
           Ok (Dataflow.Analyze.lints ~layer:"dataflow" program.Scaffold.Lower.circuit)
       in
       (* Compile-time validation, only when the source itself is not
          already broken. *)
       let* compile_diags =
         if Analysis.Diag.has_errors source_diags then Ok []
         else
           compile_levels
             ~validate:(if deep then Triq.Pass.Config.Deep else Triq.Pass.Config.Shape)
             (fun program _ -> function
               | Ok compiled ->
                 Triq.Validate.check_compiled ~measured:program.Scaffold.Lower.measured
                   compiled
               | Error (_, diags) -> diags)
             program opts
       in
       let diags =
         List.sort_uniq Analysis.Diag.compare
           (source_diags @ dataflow_diags @ List.concat compile_diags)
       in
       let errors = Analysis.Diag.error_count diags in
       let warnings = List.length diags - errors in
       if opts.json then
         (* [ok] is the domain outcome (no error-severity findings); the
            exit code stays the authoritative pass/fail signal. *)
         Obs.Output.print ~ok:(errors = 0) ~command:"lint"
           (Obs.Json.Obj
              [
                ("diagnostics", Obs.Json.List (List.map Analysis.Diag.to_json diags));
                ("errors", Obs.Json.Int errors);
                ("warnings", Obs.Json.Int warnings);
              ])
       else begin
         List.iter (fun d -> print_endline (Analysis.Diag.render d)) diags;
         Printf.eprintf "triqc lint: %d error(s), %d warning(s)\n" errors warnings
       end;
       Ok (if errors > 0 then 1 else 0))
  in
  let doc =
    "Run the static checks: Scaffold source lints, plus (with -m) a full \
     compilation under the pass-invariant validator and a structural audit of \
     the resulting executable. --deep adds the dataflow lints and per-pass \
     translation validation (see also 'triqc check'). Exits 1 if any \
     error-severity diagnostic fires."
  in
  let opts =
    target_opts
      ~machine_doc:
        "Also compile for MACHINE (built-in name or JSON description) with the \
         pass-invariant validator enabled, and audit the finished executable."
      ~json_doc:
        "Emit one JSON envelope {ok, command, data} with all diagnostics \
         instead of text."
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ file_arg $ opts $ deep_arg)

(* triqc check: the analysis-first face of lib/dataflow. Always reports
   the four abstract-domain summaries over the program; with -m it also
   recompiles under deep validation and reports, per level, whether
   every pass preserved readout liveness and (for Clifford programs)
   the stabilizer state. *)
let check_cmd =
  let run file opts =
    exit_code ~code:2
      (let source = load_program file in
       let* program = Lazy.force source in
       let circuit = program.Scaffold.Lower.circuit in
       let summary = Dataflow.Analyze.summarize circuit in
       let lints = Dataflow.Analyze.lints ~layer:"dataflow" circuit in
       let* validation =
         compile_levels ~validate:Triq.Pass.Config.Deep
           (fun _ level result ->
             let name = Triq.Pass.level_name level in
             match result with
             | Ok compiled -> (name, List.length compiled.Triq.Compiled.pass_times_s, [])
             | Error (pass, diags) -> (name, 0, List.map (fun d -> (pass, d)) diags))
           source opts
       in
       let validation_diags =
         List.concat_map (fun (_, _, ds) -> List.map snd ds) validation
       in
       let diags = List.sort_uniq Analysis.Diag.compare (lints @ validation_diags) in
       let errors = Analysis.Diag.error_count diags in
       let findings = List.length diags - errors in
       if opts.json then
         Obs.Output.print ~ok:(errors = 0) ~command:"check"
           (Obs.Json.Obj
              [
                ("file", Obs.Json.Str file);
                ("analysis", Dataflow.Analyze.summary_json summary);
                ( "validation",
                  Obs.Json.List
                    (List.map
                       (fun (level, passes, ds) ->
                         Obs.Json.Obj
                           [
                             ("level", Obs.Json.Str level);
                             ("ok", Obs.Json.Bool (ds = []));
                             ("passes", Obs.Json.Int passes);
                             ("violations", Obs.Json.Int (List.length ds));
                           ])
                       validation) );
                ("diagnostics", Obs.Json.List (List.map Analysis.Diag.to_json diags));
                ("errors", Obs.Json.Int errors);
                ("findings", Obs.Json.Int findings);
              ])
       else begin
         Printf.printf "dataflow analysis: %s\n" file;
         List.iter (fun l -> Printf.printf "  %s\n" l) (Dataflow.Analyze.summary_text summary);
         if validation <> [] then begin
           Printf.printf "translation validation (day %d):\n" opts.day;
           List.iter
             (fun (level, passes, ds) ->
               match ds with
               | [] -> Printf.printf "  %-13s ok (%d passes)\n" level passes
               | (pass, _) :: _ ->
                 Printf.printf "  %-13s FAIL at pass %s (%d violation(s))\n" level pass
                   (List.length ds))
             validation
         end;
         List.iter (fun d -> print_endline (Analysis.Diag.render d)) diags;
         Printf.eprintf "triqc check: %d error(s), %d finding(s)\n" errors findings
       end;
       Ok (if errors > 0 then 1 else 0))
  in
  let doc =
    "Run the semantic dataflow engine over a program: Clifford tableau, \
     qubit liveness, entanglement partition and phase-merge facts, plus \
     (with -m) per-pass translation validation of the compiled result. \
     Exits 1 if any error-severity diagnostic fires."
  in
  let opts =
    target_opts
      ~machine_doc:
        "Compile for MACHINE (built-in name or JSON description) with deep \
         translation validation armed, reporting per-level results."
      ~json_doc:
        "Emit one JSON envelope {ok, command, data} with the analysis \
         summary, validation results and diagnostics instead of text."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ file_arg $ opts)

let metrics_cmd =
  let simulate_arg =
    Arg.(
      value & flag
      & info [ "simulate" ]
          ~doc:
            "Also execute the compiled program on the noisy device model, so \
             the simulator and pool metrics accumulate too.")
  in
  let trajectories_arg =
    Arg.(
      value & opt int 300
      & info [ "trajectories" ] ~docv:"N"
          ~doc:"Monte-Carlo noise trajectories (with --simulate).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the registry as a single JSON envelope instead of text.")
  in
  let run () file machine_name level day do_simulate trajectories json =
    Obs.Metrics.enable ();
    exit_code ~code:2
      (let* machine, level, program, config = target ~level (load_program file) machine_name day in
       let sim = Sim.Runner.Config.make ~trajectories () in
       let* () =
         if not do_simulate then Ok ()
         else
           let* () = needs_measure ~purpose:" to simulate" program in
           Sim.Runner.Config.check sim
       in
       let compiled = compile_at config machine level program in
       if do_simulate then
         ignore (Sim.Runner.simulate ~config:sim compiled (expected_answer program));
       let dump = Obs.Metrics.dump () in
       if json then Obs.Output.print ~ok:true ~command:"metrics" (Obs.Export.metrics_json dump)
       else print_string (Obs.Export.metrics_text dump);
       Ok 0)
  in
  let doc =
    "Compile a program (and with --simulate, execute it) with the metrics \
     registry enabled, then dump every counter, gauge, and histogram: pass \
     runs, layout search effort, Clifford-action cache hits/misses, pool \
     queue-wait and busy times, simulated trajectory volume."
  in
  Cmd.v
    (Cmd.info "metrics" ~doc)
    Term.(
      const run $ jobs_arg $ file_arg $ machine_arg $ level_arg $ day_arg
      $ simulate_arg $ trajectories_arg $ json_arg)

let bench_cmd =
  let run_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run" ] ~docv:"MACHINE"
          ~doc:"Compile and execute every fitting benchmark on MACHINE (name or JSON file), printing success rates.")
  in
  let run () machine_spec day =
    match machine_spec with
    | None ->
      List.iter
        (fun (p : Bench_kit.Programs.t) ->
          let flat = Ir.Decompose.flatten p.Bench_kit.Programs.circuit in
          Printf.printf "%-10s %2d qubits, %3d 1Q, %2d 2Q  %s\n"
            p.Bench_kit.Programs.name
            p.Bench_kit.Programs.circuit.Ir.Circuit.n_qubits
            (Ir.Circuit.one_q_count flat) (Ir.Circuit.two_q_count flat)
            p.Bench_kit.Programs.description)
        (Bench_kit.Programs.all @ Bench_kit.Programs.extras);
      0
    | Some spec ->
      exit_code
        (let* machine = resolve_machine spec in
         Printf.printf "%-10s %6s %8s %8s %10s\n" "Benchmark" "2Q" "ESP" "success" "dominates";
         let config = Triq.Pass.Config.make ~day () in
         let cell (p : Bench_kit.Programs.t) =
           ( p.Bench_kit.Programs.name,
             [
               ( "",
                 {
                   Bench_kit.Cell.machine;
                   program = p;
                   compiler = Triq.Pass.Schedule.of_level ~config Triq.Pipeline.OneQOptCN;
                   config;
                   sim = Some Sim.Runner.Config.default;
                 } );
             ] )
         in
         let project (c : Triq.Compiled.t) outcome =
           let o = Option.get outcome in
           (c.Triq.Compiled.two_q_count, c.Triq.Compiled.esp, o.Sim.Runner.success_rate,
            o.Sim.Runner.dominant_correct)
         in
         Bench_kit.Cell.run_cells project [ ("", List.map cell Bench_kit.Programs.all) ]
         |> List.concat_map snd
         |> List.iter (fun { Bench_kit.Cell.bench; values } ->
                match values with
                | [ (_, Some (two_q, esp, success, dominant)) ] ->
                  Printf.printf "%-10s %6d %8.3f %8.3f %10s\n" bench two_q esp success
                    (if dominant then "yes" else "NO")
                | _ -> Printf.printf "%-10s %6s\n" bench "X");
         Ok 0)
  in
  let doc = "List the built-in benchmarks, or run them all on a machine (--run)." in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ jobs_arg $ run_arg $ day_arg)

let fuzz_cmd =
  let seed_arg =
    let doc = "Seed for the generator. The same seed replays the same cases." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cases_arg =
    let doc = "Number of generated cases per oracle." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let oracle_arg =
    let doc =
      "Run a single oracle (roundtrip, semantic, dataflow, schedule, \
       determinism, clifford, layout) instead of the whole catalog."
    in
    Arg.(value & opt (some string) None & info [ "oracle" ] ~docv:"ORACLE" ~doc)
  in
  let json_arg =
    let doc =
      "Emit one JSON envelope {ok, command, data} with all oracle reports \
       instead of text."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run () seed cases oracle json =
    exit_code ~code:2
      (let* () =
         if cases < 1 then Error (Printf.sprintf "--cases expects a positive count, got %d" cases)
         else Ok ()
       in
       let* reports =
         match oracle with
         | None -> Ok (Proptest.Oracle.run_all ~seed ~cases)
         | Some name -> Result.map (fun r -> [ r ]) (Proptest.Oracle.run ~seed ~cases name)
       in
       let failed = List.exists (fun r -> r.Proptest.Oracle.failure <> None) reports in
       if json then
         Obs.Output.print ~ok:(not failed) ~command:"fuzz"
           (Obs.Json.Obj
              [ ("reports", Obs.Json.List (List.map Proptest.Oracle.report_json reports)) ])
       else List.iter (fun r -> print_endline (Proptest.Oracle.report_text r)) reports;
       Ok (if failed then 1 else 0))
  in
  let doc =
    "Differential-test the full stack on generated circuits: emit/parse \
     round-trips, statevector-vs-density agreement, schedule semantic \
     preservation, and cross-pool determinism. On failure, exits 1 and \
     prints the shrunk counterexample as a paste-ready test case."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(const run $ jobs_arg $ seed_arg $ cases_arg $ oracle_arg $ json_arg)

let () =
  let doc = "TriQ: a multi-vendor noise-adaptive quantum compiler." in
  let info = Cmd.info "triqc" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ compile_cmd; simulate_cmd; pulse_cmd; sweep_cmd; verify_cmd; lint_cmd; check_cmd; passes_cmd; draw_cmd; convert_cmd; machines_cmd; info_cmd; export_cmd; characterize_cmd; metrics_cmd; bench_cmd; fuzz_cmd ]
  in
  (* Every subcommand compiles, so handle validator violations uniformly
     here rather than per command. *)
  exit
    (try Cmd.eval' ~catch:false group with
    | Analysis.Diag.Violation (pass, diags) ->
      Printf.eprintf "triqc: internal validation failed after %s:\n" pass;
      List.iter (fun d -> Printf.eprintf "  %s\n" (Analysis.Diag.render d)) diags;
      1
    | Invalid_argument msg ->
      Printf.eprintf "triqc: %s\n" msg;
      1)
