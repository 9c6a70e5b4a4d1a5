(* Tests for the dataflow layer: the stabilizer tableau domain, backward
   liveness, the entanglement partition, phase propagation, the Analyze
   facade, and per-pass translation validation — including deliberately
   broken passes that must be caught statically (no simulator involved)
   and the benchmark x machine x level matrix that must come back clean
   under deep validation. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Diag = Analysis.Diag
module Tableau = Dataflow.Tableau
module Liveness = Dataflow.Liveness
module Entangle = Dataflow.Entangle
module Phase = Dataflow.Phase
module Analyze = Dataflow.Analyze
module Validate = Dataflow.Validate
module Machines = Device.Machines
module Pass = Triq.Pass
module Pipeline = Triq.Pipeline
module Programs = Bench_kit.Programs

let circ n gates = Circuit.create n gates

let gen_strings t =
  List.map Tableau.generator_to_string (Tableau.generators (Tableau.canonicalize t))

let rules ds = List.map (fun d -> d.Diag.rule) ds

(* ---------- tableau ---------- *)

let test_tableau_init () =
  Alcotest.(check (list string)) "|00> = <+ZI,+IZ>" [ "+ZI"; "+IZ" ]
    (gen_strings (Tableau.init 2))

let test_tableau_h () =
  let t = Tableau.init 1 in
  Alcotest.(check bool) "H applies" true (Tableau.apply t (G.One (G.H, 0)));
  Alcotest.(check (list string)) "H|0> = <+X>" [ "+X" ] (gen_strings t)

let test_tableau_bell () =
  (* Two constructions of the same Bell state must canonicalize equal. *)
  let a = Option.get (Tableau.of_circuit (circ 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ])) in
  let b =
    Option.get
      (Tableau.of_circuit
         (circ 2 [ G.One (G.H, 1); G.Two (G.Cnot, 1, 0) ]))
  in
  Alcotest.(check (list string)) "Bell generators" [ "+XX"; "+ZZ" ] (gen_strings a);
  Alcotest.(check bool) "constructions agree" true (Tableau.equal a b)

let test_tableau_sign () =
  (* X flips the sign of the Z stabilizer: |1> = <-Z>, caught by equal. *)
  let zero = Tableau.init 1 in
  let one = Option.get (Tableau.of_circuit (circ 1 [ G.One (G.X, 0) ])) in
  Alcotest.(check (list string)) "|1> = <-Z>" [ "-Z" ] (gen_strings one);
  Alcotest.(check bool) "|0> <> |1>" false (Tableau.equal zero one)

let test_clifford_recognition () =
  List.iter
    (fun (g, want) ->
      Alcotest.(check bool)
        (Format.asprintf "clifford? %a" G.pp g)
        want (Tableau.is_clifford_gate g))
    [
      (G.One (G.H, 0), true);
      (G.One (G.S, 0), true);
      (G.One (G.T, 0), false);
      (G.One (G.Rz (Float.pi /. 2.0), 0), true);
      (G.One (G.Rz (Float.pi /. 4.0), 0), false);
      (G.Two (G.Cnot, 0, 1), true);
      (G.Two (G.Cz, 0, 1), true);
      (G.Two (G.Xx (Float.pi /. 4.0), 0, 1), true);
      (G.Two (G.Xx (Float.pi /. 8.0), 0, 1), false);
      (G.Ccx (0, 1, 2), false);
      (G.Measure 0, false);
    ]

let test_clifford_prefix () =
  let c = circ 1 [ G.One (G.H, 0); G.One (G.T, 0); G.One (G.H, 0) ] in
  Alcotest.(check int) "prefix stops at T" 1 (Tableau.clifford_prefix c);
  Alcotest.(check bool) "T circuit not Clifford" true
    (Tableau.of_circuit c = None)

let test_measurement_equal () =
  (* S before a Z-readout is unobservable: |+> and S|+> agree once the
     wire is measured, but are genuinely different states otherwise. *)
  let plus = Option.get (Tableau.of_circuit (circ 1 [ G.One (G.H, 0) ])) in
  let s_plus =
    Option.get (Tableau.of_circuit (circ 1 [ G.One (G.H, 0); G.One (G.S, 0) ]))
  in
  Alcotest.(check bool) "distinct states" false (Tableau.equal plus s_plus);
  Alcotest.(check bool) "equal under readout" true
    (Tableau.measurement_equal plus s_plus ~measured:[ 0 ]);
  (* ... but a sign flip on a measured wire is observable. *)
  let bell = circ 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ] in
  let tb = Option.get (Tableau.of_circuit bell) in
  let flipped =
    Option.get
      (Tableau.of_circuit
         (circ 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.One (G.X, 1) ]))
  in
  Alcotest.(check bool) "X on measured wire caught" false
    (Tableau.measurement_equal tb flipped ~measured:[ 0; 1 ])

let test_embed () =
  (* |+> placed on wire 1 of a 2-wire machine: the unused wire is |0>. *)
  let plus = Option.get (Tableau.of_circuit (circ 1 [ G.One (G.H, 0) ])) in
  let t = Tableau.embed plus ~n:2 ~map:[| 1 |] in
  Alcotest.(check (list string)) "embedded" [ "+IX"; "+ZI" ] (gen_strings t)

(* ---------- liveness ---------- *)

let test_liveness_dead () =
  (* H(2) cannot reach the single measurement on q1; CNOT(1,2) can. *)
  let c =
    circ 3 [ G.Two (G.Cnot, 1, 2); G.One (G.H, 2); G.Measure 1 ]
  in
  Alcotest.(check (list int)) "H(2) dead" [ 1 ] (Liveness.dead_indices c);
  Alcotest.(check (list string)) "dead.gate diag" [ "dead.gate" ]
    (rules (Liveness.dead_diags ~layer:"t" c))

let test_liveness_backward_only () =
  (* A gate *after* the last interaction with a measured wire is dead even
     though its qubit was live earlier. *)
  let c =
    circ 2 [ G.Two (G.Cnot, 0, 1); G.One (G.X, 1); G.Measure 0 ]
  in
  Alcotest.(check (list int)) "late X dead" [ 1 ] (Liveness.dead_indices c)

let test_liveness_vacuous () =
  let c = circ 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ] in
  Alcotest.(check (list int)) "no measures => no lint" []
    (Liveness.dead_indices c)

(* ---------- entanglement partition ---------- *)

let test_entangle_components () =
  let c =
    circ 5
      [
        G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Two (G.Cz, 2, 3);
        G.One (G.X, 4);
      ]
  in
  Alcotest.(check (list (list int))) "three classes"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Entangle.components c);
  Alcotest.(check (list (list int))) "unused qubits omitted" [ [ 1 ] ]
    (Entangle.components (circ 4 [ G.One (G.H, 1) ]))

(* ---------- phase propagation ---------- *)

let test_phase_mergeable () =
  (* Z .. S on q0 merge across a CNOT control but not across H. *)
  let merge =
    circ 2 [ G.One (G.Z, 0); G.Two (G.Cnot, 0, 1); G.One (G.S, 0) ]
  in
  Alcotest.(check (list (pair int int))) "across control" [ (0, 2) ]
    (Phase.mergeable merge);
  let blocked =
    circ 1 [ G.One (G.Z, 0); G.One (G.H, 0); G.One (G.S, 0) ]
  in
  Alcotest.(check (list (pair int int))) "H blocks" [] (Phase.mergeable blocked);
  let chain =
    circ 1 [ G.One (G.Rz 0.1, 0); G.One (G.Rz 0.2, 0); G.One (G.Rz 0.3, 0) ]
  in
  Alcotest.(check (list (pair int int))) "chain pairs" [ (0, 1); (1, 2) ]
    (Phase.mergeable chain);
  Alcotest.(check (list string)) "opt.missed diag" [ "opt.missed" ]
    (rules (Phase.diags ~layer:"t" merge))

(* ---------- analyze facade ---------- *)

let test_analyze_summary () =
  let c =
    circ 4
      [
        G.One (G.H, 0); G.One (G.Y, 3); G.Two (G.Cnot, 0, 1); G.One (G.Z, 1);
        G.Two (G.Cnot, 1, 2); G.One (G.S, 1); G.One (G.X, 3); G.Measure 0;
        G.Measure 1; G.Measure 2;
      ]
  in
  let s = Analyze.summarize c in
  Alcotest.(check int) "qubits" 4 s.Analyze.n_qubits;
  Alcotest.(check int) "used" 4 s.Analyze.used_qubits;
  Alcotest.(check bool) "clifford" true s.Analyze.clifford.Analyze.is_clifford;
  Alcotest.(check int) "body gates" 7 s.Analyze.clifford.Analyze.body_gates;
  Alcotest.(check (list int)) "dead q3 gates" [ 1; 6 ] s.Analyze.dead;
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3 ] ]
    s.Analyze.components;
  Alcotest.(check (list (pair int int))) "mergeable" [ (3, 5) ]
    s.Analyze.mergeable;
  Alcotest.(check (list string)) "lints sorted"
    [ "dead.gate"; "dead.gate"; "opt.missed" ]
    (rules (Analyze.lints ~layer:"t" c))

(* ---------- translation validation, unit level ---------- *)

let identity_placement n = Array.init n (fun i -> i)

let test_validate_identity () =
  let c =
    circ 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ]
  in
  let p = identity_placement 2 in
  Alcotest.(check (list string)) "identity pass clean" []
    (rules
       (Validate.check ~layer:"t" ~before:c ~before_placement:p ~after:c
          ~after_placement:p))

let test_validate_clifford_mismatch () =
  let before =
    circ 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ]
  in
  let after =
    circ 2
      [
        G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.One (G.X, 1); G.Measure 0;
        G.Measure 1;
      ]
  in
  let p = identity_placement 2 in
  Alcotest.(check (list string)) "sign flip caught" [ "clifford.mismatch" ]
    (rules
       (Validate.check ~layer:"t" ~before ~before_placement:p ~after
          ~after_placement:p))

let test_validate_live_mismatch () =
  let before = circ 2 [ G.One (G.H, 0); G.Measure 0; G.Measure 1 ] in
  let after = circ 2 [ G.One (G.H, 0); G.Measure 0 ] in
  let p = identity_placement 2 in
  let ds =
    Validate.check ~layer:"t" ~before ~before_placement:p ~after
      ~after_placement:p
  in
  Alcotest.(check bool) "dropped measure caught" true
    (List.mem "live.mismatch" (rules ds))

(* ---------- broken passes caught by the deep harness ---------- *)

(* A Clifford program a pass pipeline will keep Clifford. *)
let ghz_program =
  circ 3
    [
      G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.Measure 0;
      G.Measure 1; G.Measure 2;
    ]

let deep_config = Pass.Config.make ~validate:Pass.Config.Deep ()

let violation_rules f =
  match f () with
  | _ -> None
  | exception Diag.Violation (pass, ds) -> Some (pass, rules ds)

(* The acceptance fixture: a deliberately broken pass must be caught
   statically — by the deep validator, with a stable rule id, and without
   ever invoking a simulator. *)
let test_evil_pass_caught () =
  let evil =
    Pass.make ~name:"evil-x" ~about:"injects X on a measured wire" (fun st ->
        let c = st.Pass.circuit in
        {
          st with
          Pass.circuit =
            Circuit.create c.Circuit.n_qubits
              (c.Circuit.gates @ [ G.One (G.X, 0) ]);
        })
  in
  let state = Pass.init ~config:deep_config Machines.ibmq5 ghz_program in
  match violation_rules (fun () -> Pass.run_pass state evil) with
  | Some ("evil-x", rules) ->
    Alcotest.(check (list string)) "stable rule id" [ "clifford.mismatch" ] rules
  | Some (pass, _) -> Alcotest.failf "violation blamed %s, wanted evil-x" pass
  | None -> Alcotest.fail "evil pass escaped deep validation"

let test_measure_dropper_caught () =
  let dropper =
    Pass.make ~name:"drop-measure" ~about:"loses the last readout" (fun st ->
        let c = st.Pass.circuit in
        let gates = List.filter (fun g -> g <> G.Measure 2) c.Circuit.gates in
        { st with Pass.circuit = Circuit.create c.Circuit.n_qubits gates })
  in
  let state = Pass.init ~config:deep_config Machines.ibmq5 ghz_program in
  match violation_rules (fun () -> Pass.run_pass state dropper) with
  | Some ("drop-measure", rules) ->
    Alcotest.(check bool) "live.mismatch fired" true
      (List.mem "live.mismatch" rules)
  | Some (pass, _) -> Alcotest.failf "violation blamed %s" pass
  | None -> Alcotest.fail "measure dropper escaped deep validation"

(* Shape-only validation must NOT catch the semantic break (it is a
   well-formed circuit) — deep is strictly stronger. *)
let test_shape_misses_semantic_break () =
  let evil =
    Pass.make ~name:"evil-x" (fun st ->
        let c = st.Pass.circuit in
        {
          st with
          Pass.circuit =
            Circuit.create c.Circuit.n_qubits
              (c.Circuit.gates @ [ G.One (G.X, 0) ]);
        })
  in
  let shape = Pass.Config.make ~validate:Pass.Config.Shape () in
  let state = Pass.init ~config:shape Machines.ibmq5 ghz_program in
  match violation_rules (fun () -> Pass.run_pass state evil) with
  | None -> ()
  | Some (_, rules) ->
    Alcotest.failf "shape validation unexpectedly fired: %s"
      (String.concat "," rules)

(* ---------- the clean matrix ---------- *)

(* Every bundled benchmark, on three machines, at all four levels, under
   deep validation: zero translation-validation errors (the ISSUE's
   acceptance bar). Capacity misfits are skipped, not failures. *)
let test_deep_matrix () =
  let machines = [ Machines.ibmq14; Machines.aspen3; Machines.agave ] in
  let config =
    Pass.Config.make ~validate:Pass.Config.Deep ~node_budget:20_000 ()
  in
  let ran = ref 0 in
  List.iter
    (fun (p : Programs.t) ->
      List.iter
        (fun machine ->
          if Device.Machine.fits machine p.Programs.circuit then
            List.iter
              (fun level ->
                match
                  Pipeline.compile_level ~config machine p.Programs.circuit
                    ~level
                with
                | _ -> incr ran
                | exception Diag.Violation (pass, ds) ->
                  Alcotest.failf "%s on %s at %s: pass %s violated %s"
                    p.Programs.name machine.Device.Machine.name
                    (Triq.Pass.level_name level) pass
                    (String.concat "," (rules ds)))
              Pipeline.all_levels)
        machines)
    Programs.all;
  Alcotest.(check bool)
    (Printf.sprintf "matrix ran %d combinations" !ran)
    true (!ran >= 100)

let () =
  Alcotest.run "dataflow"
    [
      ( "tableau",
        [
          Alcotest.test_case "init" `Quick test_tableau_init;
          Alcotest.test_case "hadamard" `Quick test_tableau_h;
          Alcotest.test_case "bell" `Quick test_tableau_bell;
          Alcotest.test_case "sign" `Quick test_tableau_sign;
          Alcotest.test_case "clifford recognition" `Quick
            test_clifford_recognition;
          Alcotest.test_case "clifford prefix" `Quick test_clifford_prefix;
          Alcotest.test_case "measurement dephasing" `Quick
            test_measurement_equal;
          Alcotest.test_case "embed" `Quick test_embed;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "dead gate" `Quick test_liveness_dead;
          Alcotest.test_case "backward only" `Quick test_liveness_backward_only;
          Alcotest.test_case "no measures" `Quick test_liveness_vacuous;
        ] );
      ( "entangle",
        [ Alcotest.test_case "components" `Quick test_entangle_components ] );
      ( "phase",
        [ Alcotest.test_case "mergeable" `Quick test_phase_mergeable ] );
      ( "analyze",
        [ Alcotest.test_case "summary" `Quick test_analyze_summary ] );
      ( "validate",
        [
          Alcotest.test_case "identity clean" `Quick test_validate_identity;
          Alcotest.test_case "clifford.mismatch" `Quick
            test_validate_clifford_mismatch;
          Alcotest.test_case "live.mismatch" `Quick test_validate_live_mismatch;
        ] );
      ( "broken-pass",
        [
          Alcotest.test_case "evil X caught" `Quick test_evil_pass_caught;
          Alcotest.test_case "measure drop caught" `Quick
            test_measure_dropper_caught;
          Alcotest.test_case "shape misses it" `Quick
            test_shape_misses_semantic_break;
        ] );
      ( "matrix",
        [ Alcotest.test_case "deep validation clean" `Slow test_deep_matrix ] );
    ]
