(* Front-end tests: lexer, parser and lowering of the Scaffold-like
   language, including loop unrolling, expression evaluation and error
   reporting. *)

module G = Ir.Gate
module Circuit = Ir.Circuit

let compile = Scaffold.Lower.compile_string

let gates src = (compile src).Scaffold.Lower.circuit.Circuit.gates

(* ---------- Lexer ---------- *)

module Token = Scaffold.Token
module Ast = Scaffold.Ast

let kinds src = List.map (fun t -> t.Token.kind) (Scaffold.Lexer.tokenize src)

let test_lexer_basic () =
  (* qbit, ident, '[', int, ']', ';', eof *)
  Alcotest.(check int) "token count" 7 (List.length (kinds "qbit q[4];"))

let test_lexer_tokens () =
  match kinds "module main() { }" with
  | [ Kw_module; Ident "main"; Lparen; Rparen; Lbrace; Rbrace; Eof ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_numbers () =
  (match kinds "42 3.25" with
  | [ Int 42; Float 3.25; Eof ] -> ()
  | _ -> Alcotest.fail "numbers");
  match kinds "0..4" with
  | [ Int 0; Dotdot; Int 4; Eof ] -> ()
  | _ -> Alcotest.fail "range"

let test_lexer_comments () =
  match kinds "X // comment\n/* block\ncomment */ Y" with
  | [ Ident "X"; Ident "Y"; Eof ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try ignore (Scaffold.Lexer.tokenize "qbit @"); false
     with Scaffold.Lexer.Error (_, 1, _) -> true);
  Alcotest.(check bool) "unterminated comment" true
    (try ignore (Scaffold.Lexer.tokenize "/* never ends"); false
     with Scaffold.Lexer.Error _ -> true)

let test_lexer_positions () =
  let toks = Scaffold.Lexer.tokenize "X\n  Y" in
  match toks with
  | [ { Token.kind = Ident "X"; line = 1; col = 1 };
      { Token.kind = Ident "Y"; line = 2; col = 3 }; _ ] -> ()
  | _ -> Alcotest.fail "positions wrong"

(* ---------- Parser / Lower ---------- *)

let test_basic_program () =
  let p = compile "module main() { qbit q[2]; H(q[0]); CNOT(q[0], q[1]); measure(q); }" in
  Alcotest.(check int) "qubits" 2 p.Scaffold.Lower.circuit.Circuit.n_qubits;
  Alcotest.(check int) "gates" 4 (Circuit.gate_count p.Scaffold.Lower.circuit);
  Alcotest.(check (list int)) "measured order" [ 0; 1 ] p.Scaffold.Lower.measured

let test_loop_unrolling () =
  let p = compile "module main() { qbit q[4]; for i in 0..4 { H(q[i]); } }" in
  Alcotest.(check int) "4 hadamards" 4 (Circuit.one_q_count p.Scaffold.Lower.circuit)

let test_nested_loops () =
  let src =
    "module main() { qbit q[6]; for i in 0..2 { for j in 0..3 { X(q[3*i + j]); } } }"
  in
  let p = compile src in
  Alcotest.(check int) "6 X gates" 6 (Circuit.one_q_count p.Scaffold.Lower.circuit);
  Alcotest.(check (list int)) "every qubit touched" [ 0; 1; 2; 3; 4; 5 ]
    (Circuit.used_qubits p.Scaffold.Lower.circuit)

let test_angle_expressions () =
  match gates "module main() { qbit q[1]; Rz(pi/2, q[0]); Rx(-pi, q[0]); }" with
  | [ G.One (G.Rz theta, 0); G.One (G.Rx phi, 0) ] ->
    Alcotest.(check (float 1e-12)) "pi/2" (Float.pi /. 2.0) theta;
    Alcotest.(check (float 1e-12)) "-pi" (-.Float.pi) phi
  | _ -> Alcotest.fail "wrong gates"

let test_multi_register () =
  let p =
    compile
      "module main() { qbit a[2]; qbit b[2]; CNOT(a[0], b[0]); CNOT(a[1], b[1]); }"
  in
  (match p.Scaffold.Lower.circuit.Circuit.gates with
  | [ G.Two (G.Cnot, 0, 2); G.Two (G.Cnot, 1, 3) ] -> ()
  | _ -> Alcotest.fail "registers not laid out contiguously");
  Alcotest.(check (list (pair string int))) "names"
    [ ("a[0]", 0); ("a[1]", 1); ("b[0]", 2); ("b[1]", 3) ]
    p.Scaffold.Lower.qubit_names

let test_gate_aliases () =
  match
    gates
      "module main() { qbit q[3]; NOT(q[0]); CX(q[0], q[1]); CCNOT(q[0], q[1], q[2]); }"
  with
  | [ G.One (G.X, 0); G.Two (G.Cnot, 0, 1); G.Ccx (0, 1, 2) ] -> ()
  | _ -> Alcotest.fail "aliases not resolved"

let test_multi_qubit_gates () =
  match
    gates
      "module main() { qbit q[3]; Toffoli(q[0], q[1], q[2]); Fredkin(q[2], q[0], q[1]); \
       SWAP(q[0], q[2]); XX(pi/4, q[0], q[1]); }"
  with
  | [ G.Ccx (0, 1, 2); G.Cswap (2, 0, 1); G.Two (G.Swap, 0, 2); G.Two (G.Xx chi, 0, 1) ]
    ->
    Alcotest.(check (float 1e-12)) "chi" (Float.pi /. 4.0) chi
  | _ -> Alcotest.fail "multi-qubit gates"

let test_single_qubit_register () =
  match gates "module main() { qbit a; qbit b; CNOT(a, b); measure(a); }" with
  | [ G.Two (G.Cnot, 0, 1); G.Measure 0 ] -> ()
  | _ -> Alcotest.fail "scalar registers"

let test_measure_order_preserved () =
  let p =
    compile "module main() { qbit q[3]; measure(q[2]); measure(q[0]); measure(q[1]); }"
  in
  Alcotest.(check (list int)) "order" [ 2; 0; 1 ] p.Scaffold.Lower.measured

let expect_error src fragment =
  match compile src with
  | exception Scaffold.Lower.Error (msg, _) ->
    if not (String.length msg >= String.length fragment) then
      Alcotest.failf "error %S" msg;
    let contains =
      let rec scan i =
        if i + String.length fragment > String.length msg then false
        else String.sub msg i (String.length fragment) = fragment || scan (i + 1)
      in
      scan 0
    in
    if not contains then Alcotest.failf "error %S does not mention %S" msg fragment
  | exception Scaffold.Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected failure for %S" src

let test_error_unknown_register () =
  expect_error "module main() { qbit q[2]; H(r[0]); }" "unknown register"

let test_error_out_of_bounds () =
  expect_error "module main() { qbit q[2]; H(q[5]); }" "out of bounds";
  (* An angle that overflows to infinity would be emitted as nan. *)
  let big = String.make 300 '9' ^ ".0" in
  match compile (Printf.sprintf "module main() { qbit q[1]; Rz(%s*1000000000.0, q[0]); }" big) with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "circuit.bounds" true
      (String.starts_with ~prefix:"error[circuit.bounds]" msg)
  | _ -> Alcotest.fail "non-finite angle accepted"

let test_error_unknown_gate () =
  expect_error "module main() { qbit q[1]; FROB(q[0]); }" "unknown gate"

let test_error_duplicate_register () =
  expect_error "module main() { qbit q[1]; qbit q[2]; }" "already declared"

let test_error_repeated_operand () =
  expect_error "module main() { qbit q[2]; CNOT(q[0], q[0]); }" "repeated"

let test_error_unknown_variable () =
  expect_error "module main() { qbit q[2]; H(q[i]); }" "unknown variable"

let test_error_double_measure () =
  expect_error "module main() { qbit q[1]; measure(q[0]); measure(q[0]); }"
    "measured twice"

let test_error_arity () =
  expect_error "module main() { qbit q[2]; H(q[0], q[1]); }" "expects 1 qubit"

let test_parse_error_position () =
  match compile "module main() {\n qbit q[2]\n H(q[0]); }" with
  | exception Scaffold.Parser.Error (_, line, _) ->
    Alcotest.(check int) "line of missing semicolon" 3 line
  | _ -> Alcotest.fail "expected parse error"

(* ---------- Modules (subroutines) ---------- *)

let test_module_call () =
  let src =
    "module bell(qbit a, qbit b) { H(a); CNOT(a, b); }      module main() { qbit q[2]; bell(q[0], q[1]); measure(q); }"
  in
  match gates src with
  | [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ] -> ()
  | _ -> Alcotest.fail "module body not inlined"

let test_module_call_in_loop () =
  let src =
    "module flip(qbit a) { X(a); }      module main() { qbit q[3]; for i in 0..3 { flip(q[i]); } }"
  in
  let p = compile src in
  Alcotest.(check int) "three inlined X" 3 (Circuit.one_q_count p.Scaffold.Lower.circuit)

let test_module_nested_calls () =
  let src =
    "module inner(qbit a) { T(a); }      module outer(qbit a, qbit b) { inner(a); inner(b); CNOT(a, b); }      module main() { qbit q[2]; outer(q[0], q[1]); }"
  in
  let p = compile src in
  Alcotest.(check int) "2 T + 1 CNOT" 3 (Circuit.gate_count p.Scaffold.Lower.circuit)

let test_module_local_ancilla () =
  (* Local declarations allocate fresh qubits per call. *)
  let src =
    "module probe(qbit a) { qbit anc; CNOT(a, anc); }      module main() { qbit q[2]; probe(q[0]); probe(q[1]); }"
  in
  let p = compile src in
  Alcotest.(check int) "2 + 2 ancillas" 4 p.Scaffold.Lower.circuit.Circuit.n_qubits;
  (match p.Scaffold.Lower.circuit.Circuit.gates with
  | [ G.Two (G.Cnot, 0, 2); G.Two (G.Cnot, 1, 3) ] -> ()
  | _ -> Alcotest.fail "ancillas not fresh per call");
  Alcotest.(check bool) "scoped names" true
    (List.mem_assoc "probe.anc[0]" p.Scaffold.Lower.qubit_names)

let test_module_errors () =
  expect_error
    "module f(qbit a) { X(a); } module main() { qbit q[2]; f(q[0], q[1]); }"
    "expects 1 qubit argument";
  expect_error
    "module f(qbit a, qbit b) { CNOT(a, b); } module main() { qbit q[1]; f(q[0], q[0]); }"
    "repeated qubit arguments";
  expect_error
    "module f(qbit a) { f(a); } module main() { qbit q[1]; f(q[0]); }"
    "call depth";
  (match compile "module helper(qbit a) { X(a); }" with
  | exception Scaffold.Lower.Error (msg, _) ->
    Alcotest.(check bool) "no main" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected missing-main error");
  match Scaffold.Parser.parse "module f() { } module f() { }" with
  | exception Scaffold.Parser.Error _ -> ()
  | _ -> Alcotest.fail "duplicate module accepted"

let test_module_semantics () =
  (* A Toffoli built from a user-defined module equals the builtin. *)
  let src =
    "module toffoli_gadget(qbit a, qbit b, qbit c) { Toffoli(a, b, c); }      module main() { qbit q[3]; X(q[0]); X(q[1]); toffoli_gadget(q[0], q[1], q[2]); measure(q); }"
  in
  let p = compile src in
  let dist =
    Sim.Runner.ideal_distribution (Circuit.body p.Scaffold.Lower.circuit)
      ~measured:p.Scaffold.Lower.measured
  in
  Alcotest.(check string) "answer" "111" (fst (List.hd dist))

(* ---------- Semantics: front end against the direct IR builders ---------- *)

let test_bv4_matches_builtin () =
  let src =
    "module main() { qbit q[4]; X(q[3]); for i in 0..4 { H(q[i]); } for i in 0..3 { \
     CNOT(q[i], q[3]); } for i in 0..3 { H(q[i]); } for i in 0..3 { measure(q[i]); } }"
  in
  let p = compile src in
  let builtin = (Bench_kit.Programs.bv 4).Bench_kit.Programs.circuit in
  let dist_scaffold =
    Sim.Runner.ideal_distribution (Circuit.body p.Scaffold.Lower.circuit)
      ~measured:p.Scaffold.Lower.measured
  in
  let dist_builtin =
    Sim.Runner.ideal_distribution (Circuit.body builtin) ~measured:[ 0; 1; 2 ]
  in
  Alcotest.(check string) "same answer" (fst (List.hd dist_builtin))
    (fst (List.hd dist_scaffold))

(* ---------- Pretty-printer round trips ---------- *)

let roundtrip_equal src =
  let p1 = compile src in
  let printed = Scaffold.Pretty.program (Scaffold.Parser.parse src) in
  let p2 = compile printed in
  Circuit.equal p1.Scaffold.Lower.circuit p2.Scaffold.Lower.circuit
  && p1.Scaffold.Lower.measured = p2.Scaffold.Lower.measured

let test_pretty_roundtrip_programs () =
  List.iter
    (fun src ->
      if not (roundtrip_equal src) then
        Alcotest.failf "roundtrip changed semantics for %s" src)
    [
      "module main() { qbit q[2]; H(q[0]); CNOT(q[0], q[1]); measure(q); }";
      "module main() { qbit q[4]; for i in 0..4 { H(q[i]); } Rz(pi/2, q[3]); }";
      "module f(qbit a) { qbit anc; CNOT(a, anc); } module main() { qbit q[2]; f(q[0]); f(q[1]); }";
      "module main() { qbit q[3]; Toffoli(q[0], q[1], q[2]); Rxy(1.5, -0.5, q[0]); }";
    ]

let ast_gen =
  QCheck.Gen.(
    let gate =
      oneof
        [
          map (fun q -> ("H", [], q)) (int_range 0 3);
          map (fun q -> ("X", [], q)) (int_range 0 3);
          map2 (fun q theta -> ("Rz", [ theta ], q)) (int_range 0 3)
            (float_range (-3.0) 3.0);
        ]
    in
    let stmt =
      oneof
        [
          map
            (fun (name, angles, q) ->
              Ast.Gate
                {
                  name;
                  angles = List.map (fun f -> Ast.Float_lit f) angles;
                  qubits = [ { Ast.register = "q"; index = Some (Ast.Int_lit q) } ];
                  line = 1;
                })
            gate;
          map2
            (fun lo len ->
              Ast.For
                {
                  var = "i";
                  from_ = Ast.Int_lit lo;
                  to_ = Ast.Int_lit (lo + len);
                  body =
                    [
                      Ast.Gate
                        {
                          name = "H";
                          angles = [];
                          qubits =
                            [ { Ast.register = "q"; index = Some (Ast.Binop (Ast.Mod, Ast.Var "i", Ast.Int_lit 4)) } ];
                          line = 1;
                        };
                    ];
                  line = 1;
                })
            (int_range 0 3) (int_range 0 4);
        ]
    in
    map
      (fun stmts ->
        {
          Ast.modules =
            [
              {
                Ast.name = "main";
                params = [];
                body = Ast.Decl { name = "q"; size = 4; line = 1 } :: stmts;
                line = 1;
              };
            ];
        })
      (list_size (int_range 0 12) stmt))

let prop_pretty_roundtrip =
  QCheck.Test.make ~count:200 ~name:"print/parse/lower roundtrip"
    (QCheck.make ast_gen) (fun ast ->
      let printed = Scaffold.Pretty.program ast in
      let direct = Scaffold.Lower.lower ast in
      let reparsed = Scaffold.Lower.compile_string printed in
      Circuit.equal direct.Scaffold.Lower.circuit reparsed.Scaffold.Lower.circuit)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_pretty_roundtrip ]

let () =
  Alcotest.run "scaffold"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "token stream" `Quick test_lexer_tokens;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "basic program" `Quick test_basic_program;
          Alcotest.test_case "loop unrolling" `Quick test_loop_unrolling;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "angle expressions" `Quick test_angle_expressions;
          Alcotest.test_case "multiple registers" `Quick test_multi_register;
          Alcotest.test_case "gate aliases" `Quick test_gate_aliases;
          Alcotest.test_case "multi-qubit gates" `Quick test_multi_qubit_gates;
          Alcotest.test_case "scalar registers" `Quick test_single_qubit_register;
          Alcotest.test_case "measure order" `Quick test_measure_order_preserved;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown register" `Quick test_error_unknown_register;
          Alcotest.test_case "out of bounds" `Quick test_error_out_of_bounds;
          Alcotest.test_case "unknown gate" `Quick test_error_unknown_gate;
          Alcotest.test_case "duplicate register" `Quick test_error_duplicate_register;
          Alcotest.test_case "repeated operand" `Quick test_error_repeated_operand;
          Alcotest.test_case "unknown variable" `Quick test_error_unknown_variable;
          Alcotest.test_case "double measure" `Quick test_error_double_measure;
          Alcotest.test_case "gate arity" `Quick test_error_arity;
          Alcotest.test_case "parse error position" `Quick test_parse_error_position;
        ] );
      ( "modules",
        [
          Alcotest.test_case "call inlines" `Quick test_module_call;
          Alcotest.test_case "call in loop" `Quick test_module_call_in_loop;
          Alcotest.test_case "nested calls" `Quick test_module_nested_calls;
          Alcotest.test_case "local ancilla" `Quick test_module_local_ancilla;
          Alcotest.test_case "errors" `Quick test_module_errors;
          Alcotest.test_case "semantics" `Quick test_module_semantics;
        ] );
      ( "semantics",
        [ Alcotest.test_case "bv4 equals builtin" `Quick test_bv4_matches_builtin ] );
      ( "pretty",
        [ Alcotest.test_case "roundtrip programs" `Quick test_pretty_roundtrip_programs ] );
      ("properties", qcheck_cases);
    ]
