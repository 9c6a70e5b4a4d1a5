(* Tests for the pass manager: per-pass timing accounting, unified pass
   naming, schedule editing, and custom passes. *)

module Circuit = Ir.Circuit
module Machine = Device.Machine
module Machines = Device.Machines
module Pipeline = Triq.Pipeline
module Pass = Triq.Pass
module Config = Triq.Pass.Config
module Schedule = Triq.Pass.Schedule
module Programs = Bench_kit.Programs

let benchmarks = [ Programs.bv 4; Programs.toffoli; Programs.or_gate ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_identical label (a : Pipeline.t) (b : Pipeline.t) =
  Alcotest.(check bool)
    (label ^ ": hardware circuit identical")
    true
    (a.Pipeline.hardware = b.Pipeline.hardware);
  Alcotest.(check bool)
    (label ^ ": initial placement identical")
    true
    (a.Pipeline.initial_placement = b.Pipeline.initial_placement);
  Alcotest.(check bool)
    (label ^ ": final placement identical")
    true
    (a.Pipeline.final_placement = b.Pipeline.final_placement);
  Alcotest.(check bool)
    (label ^ ": readout map identical")
    true
    (a.Pipeline.readout_map = b.Pipeline.readout_map);
  Alcotest.(check int) (label ^ ": swap count") a.Pipeline.swap_count
    b.Pipeline.swap_count;
  Alcotest.(check int) (label ^ ": 2Q count") a.Pipeline.two_q_count
    b.Pipeline.two_q_count;
  Alcotest.(check int) (label ^ ": pulse count") a.Pipeline.pulse_count
    b.Pipeline.pulse_count;
  Alcotest.(check int) (label ^ ": flipped CNOTs") a.Pipeline.flipped_cnots
    b.Pipeline.flipped_cnots;
  if abs_float (a.Pipeline.esp -. b.Pipeline.esp) > 1e-12 then
    Alcotest.failf "%s: ESP differs: %.15f vs %.15f" label a.Pipeline.esp
      b.Pipeline.esp

(* Per-pass times are measured inside the whole-compile clock, so they
   sum to at most the total, for every machine x level x benchmark. *)
let test_pass_times_within_compile_time () =
  List.iter
    (fun machine ->
      List.iter
        (fun (p : Programs.t) ->
          if Machine.fits machine p.Programs.circuit then
            List.iter
              (fun level ->
                let label =
                  Printf.sprintf "%s/%s/%s" machine.Machine.name p.Programs.name
                    (Pipeline.level_name level)
                in
                let r = Pipeline.compile_level machine p.Programs.circuit ~level in
                let total =
                  List.fold_left (fun acc (_, t) -> acc +. t) 0.0 r.Pipeline.pass_times_s
                in
                Alcotest.(check bool)
                  (label ^ ": pass times within compile time")
                  true
                  (total <= r.Pipeline.compile_time_s +. 1e-6))
              Pipeline.all_levels)
        benchmarks)
    Machines.all

(* Satellite: pass-name unification. The timing keys, the schedule's pass
   names, and the registered catalog must be the same identifiers. *)
let test_pass_name_sets_match () =
  let catalog_names = List.map fst Pass.catalog in
  List.iter
    (fun level ->
      let schedule = Schedule.of_level level in
      let r =
        Pipeline.compile_level Machines.ibmq5 (Programs.bv 4).Programs.circuit ~level
      in
      Alcotest.(check (list string))
        (Pipeline.level_name level ^ ": timing keys = schedule pass names")
        (Schedule.pass_names schedule)
        (List.map fst r.Pipeline.pass_times_s);
      List.iter
        (fun name ->
          if not (List.mem name catalog_names) then
            Alcotest.failf "%s: schedule pass %S not in Pass.catalog"
              (Pipeline.level_name level) name)
        (Schedule.pass_names schedule))
    Pipeline.all_levels;
  (* The peephole variant's key is registered too. *)
  let config = { Config.default with Config.peephole = true } in
  List.iter
    (fun name ->
      if not (List.mem name catalog_names) then
        Alcotest.failf "peephole schedule pass %S not in Pass.catalog" name)
    (Schedule.pass_names (Schedule.of_level ~config Pipeline.OneQOptCN));
  List.iter
    (fun name ->
      if not (List.mem name catalog_names) then
        Alcotest.failf "optional pass %S not in Pass.catalog" name)
    Pass.optional_names

(* And the validator attributes violations to exactly those names: a
   custom pass registered with Pass.make that corrupts the state sees the
   Violation carry its own name. *)
let test_violation_names_pass () =
  let evil =
    Pass.make ~name:"evil"
      ~checks:(fun s ->
        [
          Analysis.Check.placement ~layer:"evil" ~what:"final placement"
            ~n_hardware:(Machine.n_qubits s.Pass.machine)
            s.Pass.final_placement;
        ])
      (fun s ->
        {
          s with
          Pass.final_placement =
            Array.make (Array.length s.Pass.final_placement) 0;
        })
  in
  let schedule = Schedule.of_level Pipeline.OneQOptCN in
  let schedule = { schedule with Schedule.passes = schedule.Schedule.passes @ [ evil ] } in
  let config = { Config.default with Config.validate = Config.Shape } in
  match
    Pipeline.compile_schedule ~config Machines.ibmq5
      (Programs.bv 4).Programs.circuit schedule
  with
  | _ -> Alcotest.fail "corrupting pass was not caught"
  | exception Analysis.Diag.Violation (pass, diags) ->
    Alcotest.(check string) "violation names the pass" "evil" pass;
    Alcotest.(check bool) "diagnostics attached" true (diags <> []);
    (* Without the validator the same schedule runs to completion. *)
    ignore
      (Pipeline.compile_schedule Machines.ibmq5 (Programs.bv 4).Programs.circuit
         schedule)

let test_schedule_disable () =
  let config = { Config.default with Config.peephole = true } in
  let schedule = Schedule.of_level ~config Pipeline.OneQOptCN in
  (match Schedule.disable schedule "peephole" with
  | Error msg -> Alcotest.failf "disable peephole: %s" msg
  | Ok s ->
    Alcotest.(check (list string))
      "peephole removed"
      (Schedule.pass_names (Schedule.of_level Pipeline.OneQOptCN))
      (Schedule.pass_names s));
  (match Schedule.disable schedule "routing" with
  | Error msg ->
    Alcotest.(check bool) "required error mentions pass" true
      (contains msg "routing")
  | Ok _ -> Alcotest.fail "disabling a required pass must fail");
  match Schedule.disable schedule "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "disabling an unknown pass must fail"

(* Disabling mapping keeps the identity placement: same output as level
   1QOpt, which uses the trivial mapper. *)
let test_schedule_disable_mapping () =
  let machine = Machines.ibmq14 in
  let circuit = (Programs.bv 4).Programs.circuit in
  match Schedule.disable (Schedule.of_level Pipeline.OneQOptC) "mapping" with
  | Error msg -> Alcotest.failf "disable mapping: %s" msg
  | Ok schedule ->
    check_identical "no-mapping = trivial placement"
      (Pipeline.compile_level machine circuit ~level:Pipeline.OneQOpt)
      (Pipeline.compile_schedule machine circuit schedule)

let test_schedule_make () =
  let names =
    [
      "flatten"; "reliability"; "mapping"; "routing"; "swap-expansion";
      "orientation"; "translation"; "oneq"; "readout";
    ]
  in
  (match Schedule.make ~level:Pipeline.OneQOptCN names with
  | Error msg -> Alcotest.failf "make: %s" msg
  | Ok schedule ->
    check_identical "make = of_level"
      (Pipeline.compile_level Machines.ibmq14 (Programs.bv 4).Programs.circuit
         ~level:Pipeline.OneQOptCN)
      (Pipeline.compile_schedule Machines.ibmq14 (Programs.bv 4).Programs.circuit
         schedule));
  (match Schedule.make ~level:Pipeline.OneQOptCN [ "flatten"; "bogus" ] with
  | Error msg ->
    Alcotest.(check bool) "unknown pass error lists names" true
      (contains msg "flatten")
  | Ok _ -> Alcotest.fail "unknown pass name must fail");
  match Schedule.make ~level:Pipeline.OneQOptCN [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty schedule must fail"

let test_config_router_parsing () =
  Alcotest.(check bool) "default" true
    (Config.router_of_string "Default" = Some Config.Default);
  Alcotest.(check bool) "lookahead" true
    (Config.router_of_string "LOOKAHEAD" = Some Config.Lookahead);
  Alcotest.(check bool) "unknown" true (Config.router_of_string "bogus" = None);
  List.iter
    (fun s ->
      if Config.router_of_string s = None then
        Alcotest.failf "router_names entry %S does not parse" s)
    Config.router_names

(* The baselines run the shared stages through the same driver, so their
   executables now carry per-pass times under the canonical names. *)
let test_baseline_pass_times () =
  let machine = Machines.ibmq14 in
  let compiled = Baselines.Qiskit_like.compile machine (Programs.bv 4).Programs.circuit in
  let names = List.map fst compiled.Triq.Compiled.pass_times_s in
  Alcotest.(check (list string)) "baseline tail pass names"
    [ "flatten"; "swap-expansion"; "orientation"; "translation"; "oneq"; "readout" ]
    names;
  let catalog_names = List.map fst Pass.catalog in
  List.iter
    (fun name ->
      if not (List.mem name catalog_names) then
        Alcotest.failf "baseline pass %S not in Pass.catalog" name)
    names

let () =
  Alcotest.run "passes"
    [
      ( "timing",
        [
          Alcotest.test_case "pass times within compile time" `Quick
            test_pass_times_within_compile_time;
        ] );
      ( "naming",
        [
          Alcotest.test_case "timing keys = schedule = catalog" `Quick
            test_pass_name_sets_match;
          Alcotest.test_case "violations name the pass" `Quick
            test_violation_names_pass;
          Alcotest.test_case "baseline pass times" `Quick test_baseline_pass_times;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "disable" `Quick test_schedule_disable;
          Alcotest.test_case "disable mapping = trivial" `Quick
            test_schedule_disable_mapping;
          Alcotest.test_case "make" `Quick test_schedule_make;
          Alcotest.test_case "router parsing" `Quick test_config_router_parsing;
        ] );
    ]
