(* OpenQASM 2.0 front-end tests: lexing/parsing, the qelib1 vocabulary,
   user gate definitions with parameter expressions, broadcasting,
   measurement mapping, error reporting, and semantic agreement with the
   equivalent Scaffold programs. *)

module F = Qasm.Frontend
module G = Ir.Gate
module Circuit = Ir.Circuit
module Mat = Ir.Matrices
module M = Mathkit.Matrix

let parse = F.parse

let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"

(* ---------- Basics ---------- *)

let test_basic_program () =
  let p = parse (header ^ "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n") in
  Alcotest.(check int) "qubits" 2 p.F.circuit.Circuit.n_qubits;
  Alcotest.(check int) "gates" 4 (Circuit.gate_count p.F.circuit);
  Alcotest.(check (list int)) "measured in cbit order" [ 0; 1 ] p.F.measured

let test_gate_vocabulary () =
  let p =
    parse
      (header
     ^ "qreg q[3];\n\
        x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\n\
        rx(0.5) q[1]; ry(pi/2) q[1]; rz(-pi) q[1];\n\
        u1(0.1) q[2]; u2(0.1,0.2) q[2]; u3(0.1,0.2,0.3) q[2];\n\
        cz q[0],q[1]; swap q[1],q[2]; ccx q[0],q[1],q[2]; id q[0];\n")
  in
  Alcotest.(check int) "all recognized" 17 (Circuit.gate_count p.F.circuit)

let test_controlled_vocabulary () =
  let p =
    parse
      (header
     ^ "qreg q[2];\ncu1(0.3) q[0],q[1]; crz(0.4) q[0],q[1]; ch q[0],q[1];\n\
        cy q[0],q[1]; cu3(0.1,0.2,0.3) q[0],q[1]; crx(0.5) q[0],q[1]; cry(0.6) q[0],q[1];\n")
  in
  (* All expand to 1Q + CNOT primitives. *)
  List.iter
    (fun g ->
      match (g : G.t) with
      | G.One _ | G.Two (G.Cnot, _, _) -> ()
      | other -> Alcotest.failf "unexpected gate %s" (G.to_string other))
    p.F.circuit.Circuit.gates

let test_parameter_expressions () =
  let p = parse (header ^ "qreg q[1];\nrz(2*pi/4 + 1.5 - 0.5) q[0];\nrx(-pi^2/pi) q[0];\n") in
  (match p.F.circuit.Circuit.gates with
  | [ G.One (G.Rz theta, 0); G.One (G.Rx phi, 0) ] ->
    Alcotest.(check (float 1e-12)) "arith" ((Float.pi /. 2.0) +. 1.0) theta;
    Alcotest.(check (float 1e-12)) "pow and neg" (-.Float.pi) phi
  | _ -> Alcotest.fail "wrong gates")

let test_multiple_registers () =
  let p =
    parse (header ^ "qreg a[2];\nqreg b[2];\ncreg c[1];\ncx a[1],b[0];\nmeasure b[1] -> c[0];\n")
  in
  (match p.F.circuit.Circuit.gates with
  | [ G.Two (G.Cnot, 1, 2); G.Measure 3 ] -> ()
  | _ -> Alcotest.fail "registers not contiguous");
  Alcotest.(check (list (pair string int))) "names"
    [ ("a[0]", 0); ("a[1]", 1); ("b[0]", 2); ("b[1]", 3) ]
    p.F.qubit_names

let test_broadcast () =
  let p = parse (header ^ "qreg q[3];\nh q;\n") in
  Alcotest.(check int) "h on all" 3 (Circuit.one_q_count p.F.circuit);
  let p2 = parse (header ^ "qreg a[3];\nqreg b[3];\ncx a,b;\n") in
  (match p2.F.circuit.Circuit.gates with
  | [ G.Two (G.Cnot, 0, 3); G.Two (G.Cnot, 1, 4); G.Two (G.Cnot, 2, 5) ] -> ()
  | _ -> Alcotest.fail "pairwise broadcast");
  (* Scalar + register broadcast. *)
  let p3 = parse (header ^ "qreg a[1];\nqreg b[3];\ncx a,b;\n") in
  Alcotest.(check int) "scalar control" 3 (Circuit.two_q_count p3.F.circuit)

let test_barrier_ignored () =
  let p = parse (header ^ "qreg q[2];\nh q[0];\nbarrier q;\ncx q[0],q[1];\n") in
  Alcotest.(check int) "barrier dropped" 2 (Circuit.gate_count p.F.circuit)

let test_measure_mapping_order () =
  (* Bits follow creg declaration order, not measurement order. *)
  let p =
    parse
      (header
     ^ "qreg q[2];\ncreg c0[1];\ncreg c1[1];\nmeasure q[1] -> c1[0];\nmeasure q[0] -> c0[0];\n")
  in
  Alcotest.(check (list int)) "cbit order" [ 0; 1 ] p.F.measured

(* ---------- User gate definitions ---------- *)

let test_user_gate () =
  let p =
    parse
      (header
     ^ "gate bell a,b { h a; cx a,b; }\nqreg q[2];\ncreg c[2];\nbell q[0],q[1];\nmeasure q -> c;\n")
  in
  match p.F.circuit.Circuit.gates with
  | [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ] -> ()
  | _ -> Alcotest.fail "definition not expanded"

let test_user_gate_with_params () =
  let p =
    parse
      (header
     ^ "gate twist(theta) a { rz(theta/2) a; rx(theta) a; rz(-theta/2) a; }\n\
        qreg q[1];\ntwist(pi) q[0];\n")
  in
  match p.F.circuit.Circuit.gates with
  | [ G.One (G.Rz t1, 0); G.One (G.Rx t2, 0); G.One (G.Rz t3, 0) ] ->
    Alcotest.(check (float 1e-12)) "half" (Float.pi /. 2.0) t1;
    Alcotest.(check (float 1e-12)) "full" Float.pi t2;
    Alcotest.(check (float 1e-12)) "neg half" (-.Float.pi /. 2.0) t3
  | _ -> Alcotest.fail "parameters not substituted"

let test_nested_user_gates () =
  let p =
    parse
      (header
     ^ "gate flip a { x a; }\ngate double_flip a { flip a; flip a; }\n\
        qreg q[1];\ndouble_flip q[0];\n")
  in
  Alcotest.(check int) "two X" 2 (Circuit.one_q_count p.F.circuit)

let test_user_gate_semantics () =
  (* A user-defined Hadamard from rotations is unitarily a Hadamard. *)
  let p =
    parse
      (header
     ^ "gate myh a { u2(0,pi) a; }\nqreg q[1];\nmyh q[0];\n")
  in
  Alcotest.(check bool) "is hadamard" true
    (M.proportional ~eps:1e-9
       (Mat.circuit_unitary p.F.circuit)
       (Mat.one_q G.H))

(* ---------- Errors ---------- *)

let expect_error src fragment =
  match parse src with
  | exception F.Error (msg, _) ->
    let contains =
      let fl = String.length fragment and ml = String.length msg in
      let rec scan i = i + fl <= ml && (String.sub msg i fl = fragment || scan (i + 1)) in
      scan 0
    in
    if not contains then Alcotest.failf "error %S does not mention %S" msg fragment
  | _ -> Alcotest.failf "expected failure for %S" src

(* [parse src] must fail with the circuit.bounds diagnostic within
   [seconds] of CPU time. *)
let rejects ?(seconds = 0.1) what parse src =
  let t0 = Sys.time () in
  (match parse src with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument msg ->
    if not (String.starts_with ~prefix:"error[circuit.bounds]" msg) then
      Alcotest.failf "%s: wrong diagnostic %S" what msg);
  if Sys.time () -. t0 > seconds then Alcotest.failf "%s: rejected too slowly" what

let test_errors () =
  expect_error "qreg q[1];" "OPENQASM";
  expect_error (header ^ "frob q[0];") "unknown";
  expect_error (header ^ "qreg q[1];\nfrob q[0];") "unknown gate";
  expect_error (header ^ "qreg q[2];\ncx q[0],q[0];") "repeated qubits";
  expect_error (header ^ "qreg q[1];\nh q[5];") "out of bounds";
  expect_error (header ^ "qreg q[2];\nqreg q[2];") "already declared";
  expect_error (header ^ "qreg q[1];\nif (c==1) x q[0];") "not supported";
  expect_error (header ^ "qreg a[2];\nqreg b[3];\ncx a,b;") "equal sizes";
  expect_error
    (header ^ "gate loop a { loop a; }\nqreg q[1];\nloop q[0];")
    "too deep";
  expect_error (header ^ "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[0];")
    "measured twice";
  expect_error (header ^ "qreg q[1];\nmeasure q[0] -> c[0];") "unknown classical register";
  (* An overflowing angle would be emitted as nan: invalid OpenQASM. *)
  rejects "infinite literal" F.parse (header ^ "qreg q[1];\nu3(1e999,0,0) q[0];");
  rejects "overflowing expression" F.parse (header ^ "qreg q[1];\nrz(10^400) q[0];");
  rejects "overflow in a gate body" F.parse
    (header ^ "gate g(t) a { rz(t*1e300) a; }\nqreg q[1];\ng(1e10) q[0];")

(* ---------- Agreement with Scaffold front end ---------- *)

let test_matches_scaffold_bv4 () =
  let qasm =
    parse
      (header
     ^ "qreg q[4];\ncreg c[3];\nx q[3];\nh q;\ncx q[0],q[3];\ncx q[1],q[3];\n\
        cx q[2],q[3];\nh q[0];\nh q[1];\nh q[2];\nmeasure q[0] -> c[0];\n\
        measure q[1] -> c[1];\nmeasure q[2] -> c[2];\n")
  in
  let builtin = Bench_kit.Programs.bv 4 in
  let dist_qasm =
    Sim.Runner.ideal_distribution (Circuit.body qasm.F.circuit) ~measured:qasm.F.measured
  in
  let dist_builtin =
    Sim.Runner.ideal_distribution
      (Circuit.body builtin.Bench_kit.Programs.circuit)
      ~measured:[ 0; 1; 2 ]
  in
  Alcotest.(check string) "same answer" (fst (List.hd dist_builtin))
    (fst (List.hd dist_qasm))

let test_emit_program_roundtrip () =
  (* Every benchmark exported as portable QASM and re-imported must keep
     its noiseless semantics. Also exercise gates qelib1 lacks. *)
  let cases =
    List.map
      (fun (p : Bench_kit.Programs.t) ->
        (p.Bench_kit.Programs.name, p.Bench_kit.Programs.circuit,
         p.Bench_kit.Programs.spec.Ir.Spec.measured))
      (Bench_kit.Programs.all @ Bench_kit.Programs.extras)
    @ [
        ( "exotic",
          Circuit.measure_all
            (Circuit.create 2
               [
                 G.One (G.Rxy (0.7, 1.1), 0);
                 G.Two (G.Xx (Float.pi /. 4.0), 0, 1);
                 G.Two (G.Iswap, 0, 1);
               ])
            [ 0; 1 ],
          [ 0; 1 ] );
      ]
  in
  List.iter
    (fun (name, circuit, measured) ->
      let text = Backend.Qasm_emit.emit_program ~name circuit in
      let reparsed = parse text in
      let reference =
        Sim.Runner.ideal_distribution (Circuit.body circuit) ~measured
      in
      let roundtrip =
        Sim.Runner.ideal_distribution
          (Circuit.body reparsed.F.circuit)
          ~measured:reparsed.F.measured
      in
      let tvd = Sim.Dist.total_variation reference roundtrip in
      if tvd > 1e-6 then Alcotest.failf "%s: roundtrip tvd %.6f" name tvd)
    cases

let test_compiles_end_to_end () =
  let p =
    parse
      (header
     ^ "qreg q[3];\ncreg c[3];\nx q[0];\nx q[1];\nccx q[0],q[1],q[2];\nmeasure q -> c;\n")
  in
  let compiled =
    Triq.Pipeline.compile_level Device.Machines.umdti p.F.circuit
      ~level:Triq.Pipeline.OneQOptCN
  in
  let spec = Ir.Spec.deterministic p.F.measured "111" in
  let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled spec in
  Alcotest.(check bool) "correct" true outcome.Sim.Runner.dominant_correct

let test_huge_registers () =
  (* Both frontends bound a register where it is declared, before any
     per-qubit work: 10^8 qubits fail at once with circuit.bounds. *)
  rejects "qreg" F.parse (header ^ "qreg q[100000000];");
  rejects "creg" F.parse (header ^ "qreg q[1];\ncreg c[100000000];");
  rejects "qreg total" F.parse (header ^ "qreg a[1000];\nqreg b[1000];");
  rejects "scaffold qbit" Scaffold.Lower.compile_string
    "module main() {\n  qbit q[100000000];\n  H(q[0]);\n}";
  let at_limit = F.parse (Printf.sprintf "%sqreg q[%d];" header Ir.Circuit.max_qubits) in
  Alcotest.(check int) "the limit itself is accepted" Ir.Circuit.max_qubits
    at_limit.F.circuit.Ir.Circuit.n_qubits

let test_expansion_bombs () =
  (* Tiny programs that expand to 2^40 and 10^10 gates stop at
     Ir.Circuit.max_gates instead of running for hours. *)
  let defs =
    List.init 40 (fun i ->
        Printf.sprintf "gate g%d a { g%d a; g%d a; }\n" (i + 1) i i)
  in
  rejects ~seconds:1.0 "qasm doubling gates" F.parse
    (header ^ "gate g0 a { h a; }\n" ^ String.concat "" defs ^ "qreg q[1];\ng40 q[0];\n");
  rejects ~seconds:1.0 "scaffold nested loops" Scaffold.Lower.compile_string
    "module main() {\n  qbit q[1];\n\
    \  for i in 0..100000 { for j in 0..100000 { H(q[0]); } }\n}"

let test_deep_loop_nesting () =
  (* 10^5 nested for loops fail at the parser's depth cap instead of
     unrolling in quadratic time. *)
  let depth = 100_000 in
  let b = Buffer.create (depth * 24) in
  Buffer.add_string b "module main() {\n  qbit q[1];\n";
  for i = 1 to depth do
    Printf.bprintf b "for v%d in 0..1 {\n" i
  done;
  Buffer.add_string b "H(q[0]);\n";
  for _ = 1 to depth do
    Buffer.add_string b "}\n"
  done;
  Buffer.add_string b "}\n";
  rejects ~seconds:1.0 "scaffold deep loops" Scaffold.Lower.compile_string
    (Buffer.contents b)

let () =
  Alcotest.run "qasm"
    [
      ( "parsing",
        [
          Alcotest.test_case "basic" `Quick test_basic_program;
          Alcotest.test_case "vocabulary" `Quick test_gate_vocabulary;
          Alcotest.test_case "controlled vocabulary" `Quick test_controlled_vocabulary;
          Alcotest.test_case "parameter expressions" `Quick test_parameter_expressions;
          Alcotest.test_case "multiple registers" `Quick test_multiple_registers;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "barrier" `Quick test_barrier_ignored;
          Alcotest.test_case "measure order" `Quick test_measure_mapping_order;
        ] );
      ( "definitions",
        [
          Alcotest.test_case "user gate" `Quick test_user_gate;
          Alcotest.test_case "parameters" `Quick test_user_gate_with_params;
          Alcotest.test_case "nesting" `Quick test_nested_user_gates;
          Alcotest.test_case "semantics" `Quick test_user_gate_semantics;
        ] );
      ( "errors",
        [
          Alcotest.test_case "diagnostics" `Quick test_errors;
          Alcotest.test_case "huge registers" `Quick test_huge_registers;
          Alcotest.test_case "expansion bombs" `Quick test_expansion_bombs;
          Alcotest.test_case "deep loop nesting" `Quick test_deep_loop_nesting;
        ] );
      ( "integration",
        [
          Alcotest.test_case "matches scaffold bv4" `Quick test_matches_scaffold_bv4;
          Alcotest.test_case "emit_program roundtrip" `Quick test_emit_program_roundtrip;
          Alcotest.test_case "end to end" `Quick test_compiles_end_to_end;
        ] );
    ]
