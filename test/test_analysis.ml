(* Tests for the static-analysis layer: the diagnostic type, every rule in
   the Check catalog (each triggered by a deliberately broken fixture), the
   Scaffold linter, the pass-invariant harness in Pipeline.compile_level, and the
   machine x level x benchmark matrix that must come back clean. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Diag = Analysis.Diag
module Check = Analysis.Check
module Lint = Analysis.Scaffold_lint
module Machines = Device.Machines
module Pipeline = Triq.Pipeline
module Programs = Bench_kit.Programs

let rules ds = List.map (fun d -> d.Diag.rule) ds

let fired name rule ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s" name rule)
    true
    (List.mem rule (rules ds))

let count_rule rule ds = List.length (List.filter (fun d -> d.Diag.rule = rule) ds)

let clean name ds =
  Alcotest.(check (list string)) (name ^ " is clean") [] (rules ds)

(* ---------- Diag basics ---------- *)

let test_diag_render () =
  let d =
    Diag.errorf ~rule:"topo.coupling" ~layer:"routing" ~loc:(Diag.Gate 12)
      "CNOT q3, q7 acts on uncoupled pair"
  in
  Alcotest.(check string) "render"
    "error[topo.coupling] routing @ gate 12: CNOT q3, q7 acts on uncoupled pair"
    (Diag.render d);
  let w = Diag.warnf ~rule:"scf.no-measure" ~layer:"scaffold" "no measure" in
  Alcotest.(check bool) "warning not error" false (Diag.is_error w);
  Alcotest.(check bool) "error is error" true (Diag.is_error d)

let test_diag_json () =
  let d =
    Diag.errorf ~rule:"exec.esp" ~layer:"executable" ~loc:(Diag.Pair (1, 2))
      "esp \"broken\""
  in
  let json = Obs.Json.to_string (Diag.to_json d) in
  (* Keys present and the quote in the message escaped. *)
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (needle ^ " in json") true (contains json needle))
    [ {|"severity":"error"|}; {|"rule":"exec.esp"|}; {|\"broken\"|}; {|"qubits":[1,2]|} ]

let test_diag_order () =
  let e = Diag.errorf ~rule:"b.rule" ~layer:"l" "e" in
  let w = Diag.warnf ~rule:"a.rule" ~layer:"l" "w" in
  (* Errors sort before warnings regardless of rule id. *)
  Alcotest.(check bool) "error first" true (Diag.compare e w < 0);
  Alcotest.(check int) "errors counted" 1 (Diag.error_count [ e; w ])

let test_diag_severity_rank () =
  let e = Diag.errorf ~rule:"z.rule" ~layer:"l" "e" in
  let w = Diag.warnf ~rule:"m.rule" ~layer:"l" "w" in
  let i = Diag.infof ~rule:"a.rule" ~layer:"l" "i" in
  (* Severity dominates rule id: error < warning < info. *)
  let sorted = List.sort Diag.compare [ i; w; e ] in
  Alcotest.(check (list string)) "severity-major order"
    [ "error"; "warning"; "info" ]
    (List.map (fun d -> Diag.severity_name d.Diag.severity) sorted);
  (* Within a severity and rule, location breaks the tie deterministically. *)
  let at l = Diag.errorf ~rule:"r" ~layer:"l" ~loc:l "m" in
  let locs =
    [ Diag.Pair (0, 1); Diag.Qubit 2; Diag.Gate 9; Diag.Gate 1; Diag.Line 4;
      Diag.Nowhere ]
  in
  Alcotest.(check (list string)) "loc tiebreak"
    [ ""; "line 4"; "gate 1"; "gate 9"; "q2"; "q0-q1" ]
    (List.map
       (fun d -> Diag.loc_string d.Diag.loc)
       (List.sort Diag.compare (List.map at locs)));
  Alcotest.(check bool) "info is not an error" false (Diag.has_errors [ i; w ])

let test_diag_loc_string () =
  List.iter
    (fun (loc, want) ->
      Alcotest.(check string) ("loc_string " ^ want) want (Diag.loc_string loc))
    [
      (Diag.Nowhere, "");
      (Diag.Line 7, "line 7");
      (Diag.Gate 0, "gate 0");
      (Diag.Qubit 13, "q13");
      (Diag.Pair (2, 5), "q2-q5");
    ]

let test_diag_json_escaping () =
  let d =
    Diag.make ~severity:Diag.Warning ~rule:"x.y" ~layer:"l"
      "quote \" slash \\ newline \n tab \t bell \007"
  in
  Alcotest.(check string) "escaped json"
    ("{\"severity\":\"warning\",\"rule\":\"x.y\",\"layer\":\"l\",\"loc\":null,"
    ^ "\"message\":\"quote \\\" slash \\\\ newline \\n tab \\t bell \\u0007\"}")
    (Obs.Json.to_string (Diag.to_json d))

let test_diag_violation_message () =
  let ds =
    [
      Diag.errorf ~rule:"circuit.bounds" ~layer:"evil" ~loc:(Diag.Gate 3)
        "qubit 9 out of range";
      Diag.warnf ~rule:"gate.set" ~layer:"evil" "H not in basis";
    ]
  in
  Alcotest.(check string) "violation message"
    ("pass \"evil\" violated 2 invariant(s):\n\
      \  error[circuit.bounds] evil @ gate 3: qubit 9 out of range\n\
      \  warning[gate.set] evil: H not in basis"
    )
    (Diag.violation_message "evil" ds)

(* ---------- Circuit-shape rules, one broken fixture each ---------- *)

let test_rule_bounds () =
  let ds = Check.qubit_bounds ~n_qubits:3 ~layer:"t" [ G.One (G.X, 5) ] in
  fired "bounds" "circuit.bounds" ds;
  Alcotest.(check int) "once" 1 (count_rule "circuit.bounds" ds);
  clean "in-range" (Check.qubit_bounds ~n_qubits:3 ~layer:"t" [ G.One (G.X, 2) ])

let test_rule_arity () =
  let ds = Check.operand_distinct ~layer:"t" [ G.Two (G.Cnot, 1, 1) ] in
  fired "arity" "circuit.arity" ds;
  clean "distinct" (Check.operand_distinct ~layer:"t" [ G.Two (G.Cnot, 0, 1) ])

let test_rule_flat () =
  let ds = Check.flattened ~layer:"t" [ G.Ccx (0, 1, 2) ] in
  fired "flat" "circuit.flat" ds;
  clean "flat ok" (Check.flattened ~layer:"t" [ G.Two (G.Cnot, 0, 1) ])

let test_rule_gateset () =
  let basis = Machines.ibmq5.Device.Machine.basis in
  let ds = Check.gateset ~layer:"t" basis [ G.One (G.H, 0) ] in
  fired "gateset" "gate.set" ds;
  clean "visible"
    (Check.gateset ~layer:"t" basis [ G.One (G.U1 0.5, 0); G.Two (G.Cnot, 0, 1) ])

let test_rule_coupling () =
  let topo = Machines.ibmq5.Device.Machine.topology in
  let (a, b) = List.hd (Device.Topology.edges topo) in
  let uncoupled =
    (* Find some pair that is not an edge. *)
    let n = Device.Topology.n_qubits topo in
    let found = ref None in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && !found = None && not (Device.Topology.coupled topo i j) then
          found := Some (i, j)
      done
    done;
    Option.get !found
  in
  let u, v = uncoupled in
  fired "coupling" "topo.coupling"
    (Check.coupling ~layer:"t" topo [ G.Two (G.Cnot, u, v) ]);
  clean "coupled" (Check.coupling ~layer:"t" topo [ G.Two (G.Cnot, a, b) ])

let test_rule_direction () =
  let topo = Machines.ibmq5.Device.Machine.topology in
  Alcotest.(check bool) "ibmq5 directed" true (Device.Topology.directed topo);
  let (a, b) = List.hd (Device.Topology.edges topo) in
  fired "direction" "topo.direction"
    (Check.direction ~layer:"t" topo [ G.Two (G.Cnot, b, a) ]);
  clean "right way" (Check.direction ~layer:"t" topo [ G.Two (G.Cnot, a, b) ]);
  (* Undirected topologies never fire the rule. *)
  let agave = Machines.agave.Device.Machine.topology in
  let (x, y) = List.hd (Device.Topology.edges agave) in
  clean "undirected" (Check.direction ~layer:"t" agave [ G.Two (G.Cnot, y, x) ])

let test_rule_measure_once () =
  fired "measure twice" "measure.once"
    (Check.measure_once ~layer:"t" [ G.Measure 0; G.Measure 0 ]);
  clean "measured once" (Check.measure_once ~layer:"t" [ G.Measure 0; G.Measure 1 ])

let test_rule_measure_order () =
  fired "gate after measure" "measure.order"
    (Check.measure_order ~layer:"t" [ G.Measure 0; G.One (G.X, 0) ]);
  clean "measure last"
    (Check.measure_order ~layer:"t" [ G.One (G.X, 0); G.Measure 0 ])

(* ---------- Executable-level rules ---------- *)

let test_rule_placement () =
  fired "out of range" "exec.placement"
    (Check.placement ~layer:"t" ~what:"initial placement" ~n_hardware:3 [| 0; 5 |]);
  fired "not injective" "exec.placement"
    (Check.placement ~layer:"t" ~what:"initial placement" ~n_hardware:3 [| 1; 1 |]);
  clean "permutation"
    (Check.placement ~layer:"t" ~what:"initial placement" ~n_hardware:3 [| 2; 0 |])

let test_rule_readout () =
  let hardware = Circuit.create 3 [ G.One (G.X, 1); G.Measure 1 ] in
  let final_placement = [| 2; 1 |] in
  (* Program qubit 1 sits on hardware 1 and is measured: the good map. *)
  clean "readout ok"
    (Check.readout ~layer:"t" ~measured:[ 1 ] ~final_placement ~hardware [ (1, 1) ]);
  (* Disagrees with the final placement and misses the measured qubit. *)
  fired "readout wrong" "exec.readout"
    (Check.readout ~layer:"t" ~measured:[ 1 ] ~final_placement ~hardware [ (0, 1) ]);
  (* Duplicate program qubit. *)
  fired "readout dup" "exec.readout"
    (Check.readout ~layer:"t" ~final_placement ~hardware [ (1, 1); (1, 1) ])

let test_rule_esp () =
  fired "esp > 1" "exec.esp" (Check.esp_range ~layer:"t" 1.5);
  fired "esp nan" "exec.esp" (Check.esp_range ~layer:"t" Float.nan);
  clean "esp ok" (Check.esp_range ~layer:"t" 0.93)

let test_rule_counters () =
  let basis = Machines.ibmq5.Device.Machine.basis in
  let hardware =
    Circuit.create 2 [ G.One (G.U1 0.3, 0); G.Two (G.Cnot, 0, 1); G.Measure 1 ]
  in
  fired "2q counter" "exec.count-2q" (Check.two_q_counter ~layer:"t" ~hardware 7);
  clean "2q counter ok" (Check.two_q_counter ~layer:"t" ~hardware 1);
  fired "pulse counter" "exec.count-pulse"
    (Check.pulse_counter ~layer:"t" basis ~hardware 99);
  (* Not software-visible: the counter rule defers to gate.set. *)
  clean "pulse skip"
    (Check.pulse_counter ~layer:"t" basis
       ~hardware:(Circuit.create 2 [ G.One (G.H, 0) ])
       99)

(* Tampering with a really-compiled executable is caught by the audit. *)
let test_tampered_executable () =
  let p = Programs.bv 4 in
  let c = Pipeline.compile_level Machines.ibmq5 p.Programs.circuit ~level:Pipeline.OneQOptCN in
  clean "untouched" (Triq.Validate.check_compiled c);
  fired "tampered 2q" "exec.count-2q"
    (Triq.Validate.check_compiled
       { c with Triq.Compiled.two_q_count = c.Triq.Compiled.two_q_count + 1 });
  fired "tampered esp" "exec.esp"
    (Triq.Validate.check_compiled { c with Triq.Compiled.esp = -0.25 });
  fired "tampered readout" "exec.readout"
    (Triq.Validate.check_compiled ~measured:[ 0; 1; 2 ]
       { c with Triq.Compiled.readout_map = [ (0, 4) ] })

(* ---------- Scaffold linter, one broken fixture each ---------- *)

let lint = Lint.lint_source

let test_scf_parse () =
  fired "parse error" "scf.parse" (lint "module main() { qbit q[2]; X(q[0) }")

let test_scf_invalid () =
  let ds = lint "module main() { qbit q[2]; X(q[5]); MeasZ(q[0]); }" in
  fired "out of range index" "scf.invalid" ds

let test_scf_use_after_measure () =
  let ds =
    lint "module main() { qbit q[2]; X(q[0]); MeasZ(q[0]); H(q[0]); }"
  in
  fired "use after measure" "scf.use-after-measure" ds

let test_scf_unused_register () =
  let ds =
    lint "module main() { qbit q[2]; qbit junk[3]; X(q[0]); MeasZ(q[0]); }"
  in
  fired "unused register" "scf.unused-register" ds;
  Alcotest.(check int) "only junk unused" 1 (count_rule "scf.unused-register" ds)

let test_scf_never_gated () =
  let ds = lint "module main() { qbit q[2]; X(q[0]); MeasZ(q[0]); MeasZ(q[1]); }" in
  fired "measured but never gated" "scf.never-gated" ds

let test_scf_no_measure () =
  fired "no measure" "scf.no-measure" (lint "module main() { qbit q[1]; X(q[0]); }")

let test_scf_clean_program () =
  clean "clean scaffold"
    (lint "module main() { qbit q[2]; H(q[0]); CNOT(q[0], q[1]); MeasZ(q[0]); MeasZ(q[1]); }")

(* ---------- Normalized precondition failures ---------- *)

let test_normalized_raises () =
  let message_of f = try ignore (f ()); "" with Invalid_argument m -> m in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let m1 = message_of (fun () -> Triq.Placement.trivial ~n_program:9 ~n_hardware:5) in
  Alcotest.(check bool) "mapper names rule" true (contains m1 "circuit.bounds");
  Alcotest.(check bool) "mapper names layer" true (contains m1 "mapping");
  let m2 =
    message_of (fun () ->
        Triq.Direction.fix Machines.ibmq5.Device.Machine.topology
          (Circuit.create 5 [ G.Two (G.Cnot, 0, 3) ]))
  in
  (* 0-3 is not an IBMQ5 edge in either direction. *)
  if not (Device.Topology.coupled Machines.ibmq5.Device.Machine.topology 0 3) then begin
    Alcotest.(check bool) "direction names rule" true (contains m2 "topo.coupling");
    Alcotest.(check bool) "direction names pair" true (contains m2 "q0-q3")
  end

(* ---------- The pass-invariant harness over the benchmark matrix ---------- *)

(* Router/peephole ablations as typed configs: the grid iterates
   Config.t values (each selecting a schedule edit), not option tuples. *)
let matrix_configs =
  let open Triq.Pass.Config in
  List.map
    (fun (peephole, router) ->
      {
        default with
        peephole;
        router;
        validate = Triq.Pass.Config.Shape;
        layout = Layout.Config.make ~node_budget:20_000 ();
      })
    [ (false, Default); (true, Default); (false, Lookahead); (true, Lookahead) ]

let test_validated_matrix () =
  (* Every machine x level x fitting benchmark compiles with the validator
     on and the finished executable audits clean. *)
  List.iter
    (fun machine ->
      List.iter
        (fun (p : Programs.t) ->
          if Device.Machine.fits machine p.Programs.circuit then
            List.iter
              (fun level ->
                let config =
                  Triq.Pass.Config.make ~node_budget:20_000 ~validate:Triq.Pass.Config.Shape ()
                in
                let r =
                  Pipeline.compile_schedule ~config machine p.Programs.circuit
                    (Triq.Pass.Schedule.of_level ~config level)
                in
                clean
                  (Printf.sprintf "%s/%s/%s" machine.Device.Machine.name
                     p.Programs.name (Triq.Pass.level_name level))
                  (Triq.Validate.check_compiled
                     ~measured:(Circuit.measured_qubits p.Programs.circuit)
                     r))
              Pipeline.all_levels)
        Programs.all)
    Machines.all

let test_validated_ablations () =
  (* Router and peephole ablations stay invariant-clean too (a directed, an
     undirected and the all-to-all machine). *)
  List.iter
    (fun machine ->
      List.iter
        (fun (p : Programs.t) ->
          if Device.Machine.fits machine p.Programs.circuit then
            List.iter
              (fun config ->
                let r =
                  Pipeline.compile_schedule ~config machine p.Programs.circuit
                    (Triq.Pass.Schedule.of_level ~config Pipeline.OneQOptCN)
                in
                clean
                  (Printf.sprintf "%s/%s ablation" machine.Device.Machine.name
                     p.Programs.name)
                  (Triq.Validate.check_compiled
                     ~measured:(Circuit.measured_qubits p.Programs.circuit)
                     r))
              matrix_configs)
        Programs.all)
    [ Machines.ibmq14; Machines.aspen1; Machines.umdti ]

let test_static_clean_implies_verified () =
  (* Cross-check: executables the static layer calls clean also pass the
     dynamic noiseless-equivalence oracle. *)
  List.iter
    (fun (name, machine) ->
      List.iter
        (fun (p : Programs.t) ->
          if Device.Machine.fits machine p.Programs.circuit then begin
            let measured = Circuit.measured_qubits p.Programs.circuit in
            let c =
              Pipeline.compile_level ~config:(Triq.Pass.Config.make ~validate:Triq.Pass.Config.Shape ())
                machine p.Programs.circuit
                ~level:Pipeline.OneQOptCN
            in
            clean
              (Printf.sprintf "%s on %s static" p.Programs.name name)
              (Triq.Validate.check_compiled ~measured c);
            let v = Sim.Verify.check ~program:p.Programs.circuit ~measured c in
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s dynamically equivalent" p.Programs.name name)
              true v.Sim.Verify.equivalent
          end)
        [ Programs.bv 4; Programs.toffoli; Programs.or_gate; Programs.ghz 4 ])
    [ ("IBMQ5", Machines.ibmq5); ("Agave", Machines.agave); ("UMDTI", Machines.umdti) ]

(* ---------- Catalog completeness ---------- *)

let test_catalogs () =
  (* Catalogued ids are unique across the check and lint catalogs. *)
  let ids = List.map fst Check.catalog @ List.map fst Lint.catalog in
  Alcotest.(check int) "no duplicate rule ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun rule -> Alcotest.(check bool) (rule ^ " catalogued") true (List.mem rule ids))
    [
      "circuit.bounds"; "circuit.arity"; "circuit.flat"; "gate.set"; "topo.coupling";
      "topo.direction"; "measure.once"; "measure.order"; "exec.placement";
      "exec.readout"; "exec.esp"; "exec.count-2q"; "exec.count-pulse"; "scf.parse";
      "scf.invalid"; "scf.use-after-measure"; "scf.unused-register"; "scf.never-gated";
      "scf.no-measure";
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "diag",
        [
          Alcotest.test_case "render" `Quick test_diag_render;
          Alcotest.test_case "json" `Quick test_diag_json;
          Alcotest.test_case "ordering" `Quick test_diag_order;
          Alcotest.test_case "severity rank" `Quick test_diag_severity_rank;
          Alcotest.test_case "loc_string" `Quick test_diag_loc_string;
          Alcotest.test_case "json escaping" `Quick test_diag_json_escaping;
          Alcotest.test_case "violation message" `Quick test_diag_violation_message;
        ] );
      ( "rules",
        [
          Alcotest.test_case "circuit.bounds" `Quick test_rule_bounds;
          Alcotest.test_case "circuit.arity" `Quick test_rule_arity;
          Alcotest.test_case "circuit.flat" `Quick test_rule_flat;
          Alcotest.test_case "gate.set" `Quick test_rule_gateset;
          Alcotest.test_case "topo.coupling" `Quick test_rule_coupling;
          Alcotest.test_case "topo.direction" `Quick test_rule_direction;
          Alcotest.test_case "measure.once" `Quick test_rule_measure_once;
          Alcotest.test_case "measure.order" `Quick test_rule_measure_order;
          Alcotest.test_case "exec.placement" `Quick test_rule_placement;
          Alcotest.test_case "exec.readout" `Quick test_rule_readout;
          Alcotest.test_case "exec.esp" `Quick test_rule_esp;
          Alcotest.test_case "exec.counters" `Quick test_rule_counters;
          Alcotest.test_case "tampered executable" `Quick test_tampered_executable;
        ] );
      ( "scaffold-lint",
        [
          Alcotest.test_case "scf.parse" `Quick test_scf_parse;
          Alcotest.test_case "scf.invalid" `Quick test_scf_invalid;
          Alcotest.test_case "scf.use-after-measure" `Quick test_scf_use_after_measure;
          Alcotest.test_case "scf.unused-register" `Quick test_scf_unused_register;
          Alcotest.test_case "scf.never-gated" `Quick test_scf_never_gated;
          Alcotest.test_case "scf.no-measure" `Quick test_scf_no_measure;
          Alcotest.test_case "clean program" `Quick test_scf_clean_program;
        ] );
      ( "harness",
        [
          Alcotest.test_case "normalized raises" `Quick test_normalized_raises;
          Alcotest.test_case "validated matrix" `Slow test_validated_matrix;
          Alcotest.test_case "validated ablations" `Slow test_validated_ablations;
          Alcotest.test_case "static clean => verified" `Slow
            test_static_clean_implies_verified;
          Alcotest.test_case "catalogs" `Quick test_catalogs;
        ] );
    ]
