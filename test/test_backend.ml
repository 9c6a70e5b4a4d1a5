(* Code-generation tests: each emitter produces only its vendor's
   software-visible syntax, and OpenQASM round-trips through the subset
   parser with the unitary preserved. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Mat = Ir.Matrices
module M = Mathkit.Matrix
module Machines = Device.Machines
module Pipeline = Triq.Pipeline

let bv4 = (Bench_kit.Programs.bv 4).Bench_kit.Programs.circuit

let compile machine = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptCN

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* ---------- OpenQASM ---------- *)

let test_qasm_structure () =
  let text = Backend.Qasm_emit.emit (compile Machines.ibmq5) in
  Alcotest.(check bool) "version header" true (contains text "OPENQASM 2.0;");
  Alcotest.(check bool) "include" true (contains text "qelib1.inc");
  Alcotest.(check bool) "qreg" true (contains text "qreg q[5];");
  Alcotest.(check bool) "creg" true (contains text "creg c[3];");
  Alcotest.(check bool) "has cx" true (contains text "cx q[");
  Alcotest.(check bool) "has measure" true (contains text "-> c[")

let test_qasm_rejects_foreign_gates () =
  let c = Circuit.create 2 [ G.One (G.H, 0) ] in
  Alcotest.(check bool) "H not emittable" true
    (try ignore (Backend.Qasm_emit.emit_circuit ~n_qubits:2 ~name:"t" c); false
     with Invalid_argument _ -> true)

let test_qasm_rejects_wrong_vendor () =
  Alcotest.(check bool) "rigetti refused" true
    (try ignore (Backend.Qasm_emit.emit (compile Machines.agave)); false
     with Invalid_argument _ -> true)

let test_qasm_roundtrip () =
  let compiled = compile Machines.ibmq5 in
  let text = Backend.Qasm_emit.emit compiled in
  let parsed = Qasm.Frontend.parse text in
  Alcotest.(check int) "qubits" 5 parsed.Qasm.Frontend.circuit.Circuit.n_qubits;
  (* Same gate sequence after the round trip. *)
  Alcotest.(check bool) "circuits equal" true
    (Circuit.equal compiled.Triq.Compiled.hardware parsed.Qasm.Frontend.circuit)

let test_qasm_roundtrip_unitary () =
  let compiled = compile Machines.ibmq5 in
  let text = Backend.Qasm_emit.emit compiled in
  let parsed = Qasm.Frontend.parse text in
  let restrict c =
    let body = Circuit.body c in
    fst (Circuit.compact body)
  in
  let u1 = Mat.circuit_unitary (restrict compiled.Triq.Compiled.hardware) in
  let u2 = Mat.circuit_unitary (restrict parsed.Qasm.Frontend.circuit) in
  Alcotest.(check bool) "unitary preserved" true (M.proportional ~eps:1e-9 u1 u2)

let test_qasm_parse_errors () =
  let raises s =
    try ignore (Qasm.Frontend.parse s); false with Qasm.Frontend.Error _ -> true
  in
  Alcotest.(check bool) "no qreg" true (raises "OPENQASM 2.0;\ncx q[0],q[1];");
  Alcotest.(check bool) "junk" true
    (raises "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];");
  Alcotest.(check bool) "bad angle" true
    (raises "OPENQASM 2.0;\nqreg q[2];\nu1(nonsense) q[0];")

let test_qasm_parse_readout_map () =
  let text =
    "OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nmeasure q[2] -> c[0];\nmeasure q[0] -> c[1];\n"
  in
  let parsed = Qasm.Frontend.parse text in
  Alcotest.(check (list (pair int int))) "readout" [ (0, 2); (1, 0) ]
    (List.mapi (fun i q -> (i, q)) parsed.Qasm.Frontend.measured)

(* ---------- Quil ---------- *)

let test_quil_structure () =
  let text = Backend.Quil_emit.emit (compile Machines.agave) in
  Alcotest.(check bool) "declare ro" true (contains text "DECLARE ro BIT[3]");
  Alcotest.(check bool) "has cz" true (contains text "CZ ");
  Alcotest.(check bool) "has rz" true (contains text "RZ(");
  Alcotest.(check bool) "has rx" true (contains text "RX(");
  Alcotest.(check bool) "has measure" true (contains text "MEASURE ")

let test_quil_rejects_wrong_vendor () =
  Alcotest.(check bool) "ibm refused" true
    (try ignore (Backend.Quil_emit.emit (compile Machines.ibmq5)); false
     with Invalid_argument _ -> true)

let test_quil_no_foreign_gates () =
  let text = Backend.Quil_emit.emit (compile Machines.aspen1) in
  Alcotest.(check bool) "no cnot" false (contains text "CNOT");
  Alcotest.(check bool) "no hadamard" false (contains text "H ")

let test_quil_roundtrip () =
  let compiled = compile Machines.agave in
  let text = Backend.Quil_emit.emit compiled in
  let parsed = Backend.Quil_parse.parse text in
  (* The parsed circuit spans only the mentioned qubits; compare the gate
     lists directly. *)
  Alcotest.(check bool) "gate lists equal" true
    (List.for_all2 G.equal compiled.Triq.Compiled.hardware.Circuit.gates
       parsed.Backend.Quil_parse.circuit.Circuit.gates)

let test_quil_roundtrip_unitary () =
  let compiled = compile Machines.aspen1 in
  let text = Backend.Quil_emit.emit compiled in
  let parsed = Backend.Quil_parse.parse text in
  let restrict c = fst (Circuit.compact (Circuit.body c)) in
  let u1 = Mat.circuit_unitary (restrict compiled.Triq.Compiled.hardware) in
  let u2 = Mat.circuit_unitary (restrict parsed.Backend.Quil_parse.circuit) in
  Alcotest.(check bool) "unitary preserved" true (M.proportional ~eps:1e-9 u1 u2)

let test_quil_parse_errors () =
  let raises s =
    try ignore (Backend.Quil_parse.parse s); false with Backend.Quil_parse.Error _ -> true
  in
  Alcotest.(check bool) "empty" true (raises "# nothing\n");
  Alcotest.(check bool) "junk" true (raises "FROB 1 2\n");
  Alcotest.(check bool) "bad angle" true (raises "RZ(xyz) 0\n")

(* ---------- UMD TI ---------- *)

let test_ti_structure () =
  let text = Backend.Ti_emit.emit (compile Machines.umdti) in
  Alcotest.(check bool) "has xx" true (contains text "XX  ");
  Alcotest.(check bool) "has rotation" true (contains text "R   ");
  Alcotest.(check bool) "has measurement" true (contains text "MEAS ")

let test_ti_rejects_wrong_vendor () =
  Alcotest.(check bool) "ibm refused" true
    (try ignore (Backend.Ti_emit.emit (compile Machines.ibmq5)); false
     with Invalid_argument _ -> true)

let test_ti_roundtrip () =
  let compiled = compile Machines.umdti in
  let text = Backend.Ti_emit.emit compiled in
  let parsed = Backend.Ti_parse.parse text in
  Alcotest.(check bool) "gate lists equal" true
    (List.for_all2 G.equal compiled.Triq.Compiled.hardware.Circuit.gates
       parsed.Backend.Ti_parse.circuit.Circuit.gates);
  Alcotest.(check int) "three readouts" 3
    (List.length parsed.Backend.Ti_parse.measured)

let test_ti_parse_errors () =
  let raises s =
    try ignore (Backend.Ti_parse.parse s); false with Backend.Ti_parse.Error _ -> true
  in
  Alcotest.(check bool) "empty" true (raises "; nothing\n");
  Alcotest.(check bool) "junk" true (raises "WOBBLE 0\n")

(* ---------- Whitespace dialects & numeric formats ---------- *)

(* Table-driven: each row is (label, source text, expected gates). The
   sources exercise CRLF line endings, trailing whitespace, tab
   separators, and scientific-notation angles — all of which real vendor
   toolchains produce. *)

let check_gates label expected (actual : Circuit.t) =
  Alcotest.(check int)
    (label ^ ": gate count") (List.length expected)
    (List.length actual.Circuit.gates);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: gate %d (%s vs %s)" label i (G.to_string e)
           (G.to_string a))
        true (G.equal e a))
    (List.combine expected actual.Circuit.gates)

let test_qasm_whitespace_dialects () =
  let table =
    [
      ( "crlf",
        "OPENQASM 2.0;\r\nqreg q[2];\r\ncx q[0],q[1];\r\n",
        [ G.Two (G.Cnot, 0, 1) ] );
      ( "trailing blanks",
        "OPENQASM 2.0;\nqreg q[2];  \nu1(0.5) q[1];   \n",
        [ G.One (G.U1 0.5, 1) ] );
      ( "tab separators",
        "OPENQASM 2.0;\nqreg\tq[2];\ncreg\tc[1];\ncx\tq[0],q[1];\nmeasure\tq[0]\t->\tc[0];\n",
        [ G.Two (G.Cnot, 0, 1); G.Measure 0 ] );
      ( "scientific notation",
        "OPENQASM 2.0;\nqreg q[1];\nu1(1e-3) q[0];\nu2(2.5e-2,-1E-4) q[0];\n",
        [ G.One (G.U1 1e-3, 0); G.One (G.U2 (2.5e-2, -1e-4), 0) ] );
      ( "all at once",
        "OPENQASM 2.0;\r\nqreg\tq[2]; \t\r\nu3(1e-9,0.5,-2.5E-3)\tq[1];  \r\n",
        [ G.One (G.U3 (1e-9, 0.5, -2.5e-3), 1) ] );
    ]
  in
  List.iter
    (fun (label, src, expected) ->
      check_gates label expected (Qasm.Frontend.parse src).Qasm.Frontend.circuit)
    table

let test_quil_whitespace_dialects () =
  let table =
    [
      ("crlf", "CZ 0 1\r\nRZ(0.5) 0\r\n", [ G.Two (G.Cz, 0, 1); G.One (G.Rz 0.5, 0) ]);
      ("trailing blanks", "RX(1.5) 1   \nCZ 0 1  \n", [ G.One (G.Rx 1.5, 1); G.Two (G.Cz, 0, 1) ]);
      ( "tab separators",
        "DECLARE ro BIT[1]\nCZ\t0\t1\nMEASURE\t0\tro[0]\n",
        [ G.Two (G.Cz, 0, 1); G.Measure 0 ] );
      ( "scientific notation",
        "RZ(1e-3) 0\nRX(-2.5E-2) 1\n",
        [ G.One (G.Rz 1e-3, 0); G.One (G.Rx (-2.5e-2), 1) ] );
      ( "all at once",
        "RZ(1E-9)\t0 \t\r\nISWAP\t0\t1  \r\n",
        [ G.One (G.Rz 1e-9, 0); G.Two (G.Iswap, 0, 1) ] );
    ]
  in
  List.iter
    (fun (label, src, expected) ->
      check_gates label expected (Backend.Quil_parse.parse src).Backend.Quil_parse.circuit)
    table

let test_ti_whitespace_dialects () =
  let table =
    [
      ( "crlf",
        "R 0 0.5 0.25\r\nXX 0 1 0.785\r\n",
        [ G.One (G.Rxy (0.5, 0.25), 0); G.Two (G.Xx 0.785, 0, 1) ] );
      ("trailing blanks", "RZ 1 0.5   \nMEAS 1  \n", [ G.One (G.Rz 0.5, 1); G.Measure 1 ]);
      ( "tab separators",
        "R\t0\t0.5\t0.25\nMEAS\t0\n",
        [ G.One (G.Rxy (0.5, 0.25), 0); G.Measure 0 ] );
      ( "scientific notation",
        "RZ 0 1e-3\nXX 0 1 -7.85E-1\n",
        [ G.One (G.Rz 1e-3, 0); G.Two (G.Xx (-0.785), 0, 1) ] );
      ( "all at once",
        "R\t1\t1E-9\t-2.5e-3 \t\r\nMEAS\t1 \r\n",
        [ G.One (G.Rxy (1e-9, -2.5e-3), 1); G.Measure 1 ] );
    ]
  in
  List.iter
    (fun (label, src, expected) ->
      check_gates label expected (Backend.Ti_parse.parse src).Backend.Ti_parse.circuit)
    table

(* ---------- Differential: the emitters against Printf references ---------- *)

(* The emitters as they were written with one [Printf.sprintf] per gate and
   per angle. They are the byte-for-byte reference the Buffer writer must
   reproduce. *)
module Reference = struct
  let target (compiled : Triq.Compiled.t) =
    Printf.sprintf "target: %s, compiler: %s, calibration day %d"
      compiled.Triq.Compiled.machine.Device.Machine.name
      compiled.Triq.Compiled.compiler compiled.Triq.Compiled.day

  let qasm_render buf ~n_qubits ~header (gates : G.t list) =
    let angle a = Buffer.add_string buf (Printf.sprintf "%.17g" a) in
    Buffer.add_string buf "OPENQASM 2.0;\n";
    Buffer.add_string buf "include \"qelib1.inc\";\n";
    Buffer.add_string buf header;
    Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" n_qubits);
    let n_measures = List.length (List.filter G.is_measure gates) in
    if n_measures > 0 then Buffer.add_string buf (Printf.sprintf "creg c[%d];\n" n_measures);
    let next_cbit = ref 0 in
    List.iter
      (fun g ->
        (match (g : G.t) with
        | One (U1 l, q) ->
          Buffer.add_string buf "u1(";
          angle l;
          Buffer.add_string buf (Printf.sprintf ") q[%d];" q)
        | One (U2 (p, l), q) ->
          Buffer.add_string buf "u2(";
          angle p;
          Buffer.add_string buf ",";
          angle l;
          Buffer.add_string buf (Printf.sprintf ") q[%d];" q)
        | One (U3 (t, p, l), q) ->
          Buffer.add_string buf "u3(";
          angle t;
          Buffer.add_string buf ",";
          angle p;
          Buffer.add_string buf ",";
          angle l;
          Buffer.add_string buf (Printf.sprintf ") q[%d];" q)
        | Two (Cnot, a, b) -> Buffer.add_string buf (Printf.sprintf "cx q[%d],q[%d];" a b)
        | Measure q ->
          Buffer.add_string buf (Printf.sprintf "measure q[%d] -> c[%d];" q !next_cbit);
          incr next_cbit
        | _ -> invalid_arg "reference qasm");
        Buffer.add_char buf '\n')
      gates

  let qasm_circuit ~n_qubits ~name (c : Circuit.t) =
    let buf = Buffer.create 1024 in
    qasm_render buf ~n_qubits ~header:(Printf.sprintf "// %s\n" name) c.Circuit.gates;
    Buffer.contents buf

  let qasm (compiled : Triq.Compiled.t) =
    let buf = Buffer.create 1024 in
    qasm_render buf
      ~n_qubits:(Device.Machine.n_qubits compiled.Triq.Compiled.machine)
      ~header:(Printf.sprintf "// %s\n" (target compiled))
      compiled.Triq.Compiled.hardware.Circuit.gates;
    Buffer.contents buf

  let qasm_program ~name (c : Circuit.t) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    Buffer.add_string buf (Printf.sprintf "// %s\n" name);
    Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" c.Circuit.n_qubits);
    let n_measures = Circuit.measure_count c in
    if n_measures > 0 then Buffer.add_string buf (Printf.sprintf "creg c[%d];\n" n_measures);
    let next_cbit = ref 0 in
    let q i = Printf.sprintf "q[%d]" i in
    let line s = Buffer.add_string buf (s ^ ";\n") in
    let rec emit_gate (g : G.t) =
      match g with
      | One (X, a) -> line (Printf.sprintf "x %s" (q a))
      | One (Y, a) -> line (Printf.sprintf "y %s" (q a))
      | One (Z, a) -> line (Printf.sprintf "z %s" (q a))
      | One (H, a) -> line (Printf.sprintf "h %s" (q a))
      | One (S, a) -> line (Printf.sprintf "s %s" (q a))
      | One (Sdg, a) -> line (Printf.sprintf "sdg %s" (q a))
      | One (T, a) -> line (Printf.sprintf "t %s" (q a))
      | One (Tdg, a) -> line (Printf.sprintf "tdg %s" (q a))
      | One (Rx t, a) -> line (Printf.sprintf "rx(%.17g) %s" t (q a))
      | One (Ry t, a) -> line (Printf.sprintf "ry(%.17g) %s" t (q a))
      | One (Rz t, a) -> line (Printf.sprintf "rz(%.17g) %s" t (q a))
      | One (U1 l, a) -> line (Printf.sprintf "u1(%.17g) %s" l (q a))
      | One (U2 (p, l), a) -> line (Printf.sprintf "u2(%.17g,%.17g) %s" p l (q a))
      | One (U3 (t, p, l), a) -> line (Printf.sprintf "u3(%.17g,%.17g,%.17g) %s" t p l (q a))
      | One (Rxy (t, p), a) ->
        emit_gate (G.One (G.Rz (-.p), a));
        emit_gate (G.One (G.Rx t, a));
        emit_gate (G.One (G.Rz p, a))
      | Two (Cnot, a, b) -> line (Printf.sprintf "cx %s,%s" (q a) (q b))
      | Two (Cz, a, b) -> line (Printf.sprintf "cz %s,%s" (q a) (q b))
      | Two (Swap, a, b) -> line (Printf.sprintf "swap %s,%s" (q a) (q b))
      | Two (Xx chi, a, b) -> List.iter emit_gate (Ir.Decompose.xx_gates chi a b)
      | Two (Iswap, a, b) -> List.iter emit_gate (Ir.Decompose.iswap a b)
      | Ccx (a, b, t) -> line (Printf.sprintf "ccx %s,%s,%s" (q a) (q b) (q t))
      | Cswap (cc, a, b) -> line (Printf.sprintf "cswap %s,%s,%s" (q cc) (q a) (q b))
      | Measure a ->
        line (Printf.sprintf "measure %s -> c[%d]" (q a) !next_cbit);
        incr next_cbit
    in
    List.iter emit_gate c.Circuit.gates;
    Buffer.contents buf

  let quil_render ~name (gates : G.t list) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "# %s\n" name);
    let measures = List.filter G.is_measure gates in
    if measures <> [] then
      Buffer.add_string buf (Printf.sprintf "DECLARE ro BIT[%d]\n" (List.length measures));
    let next_cbit = ref 0 in
    List.iter
      (fun g ->
        (match (g : G.t) with
        | One (Rz theta, q) -> Buffer.add_string buf (Printf.sprintf "RZ(%.17g) %d" theta q)
        | One (Rx theta, q) -> Buffer.add_string buf (Printf.sprintf "RX(%.17g) %d" theta q)
        | Two (Cz, a, b) -> Buffer.add_string buf (Printf.sprintf "CZ %d %d" a b)
        | Two (Iswap, a, b) -> Buffer.add_string buf (Printf.sprintf "ISWAP %d %d" a b)
        | Measure q ->
          Buffer.add_string buf (Printf.sprintf "MEASURE %d ro[%d]" q !next_cbit);
          incr next_cbit
        | _ -> invalid_arg "reference quil");
        Buffer.add_char buf '\n')
      gates;
    Buffer.contents buf

  let ti_render ~name (gates : G.t list) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "; %s\n" name);
    List.iter
      (fun g ->
        (match (g : G.t) with
        | One (Rxy (theta, phi), q) ->
          Buffer.add_string buf (Printf.sprintf "R   %d %.17g %.17g" q theta phi)
        | One (Rz lambda, q) -> Buffer.add_string buf (Printf.sprintf "RZ  %d %.17g" q lambda)
        | Two (Xx chi, a, b) -> Buffer.add_string buf (Printf.sprintf "XX  %d %d %.17g" a b chi)
        | Measure q -> Buffer.add_string buf (Printf.sprintf "MEAS %d" q)
        | _ -> invalid_arg "reference ti");
        Buffer.add_char buf '\n')
      gates;
    Buffer.contents buf

  let executable (compiled : Triq.Compiled.t) =
    let gates = compiled.Triq.Compiled.hardware.Circuit.gates in
    match compiled.Triq.Compiled.machine.Device.Machine.basis with
    | Device.Gateset.Ibm_visible -> qasm compiled
    | Device.Gateset.Rigetti_visible | Device.Gateset.Rigetti_parametric_visible ->
      quil_render ~name:(target compiled) gates
    | Device.Gateset.Umd_visible -> ti_render ~name:(target compiled) gates
end

let check_text label expected actual =
  if expected <> actual then
    Alcotest.failf "%s: emitted text differs from the reference\n--- reference\n%s\n--- emitted\n%s"
      label expected actual

let test_diff_executables () =
  let n = ref 0 in
  List.iter
    (fun (p : Bench_kit.Programs.t) ->
      let circuit = p.Bench_kit.Programs.circuit in
      let name = p.Bench_kit.Programs.name in
      check_text (name ^ " program") (Reference.qasm_program ~name circuit)
        (Backend.Qasm_emit.emit_program ~name circuit);
      List.iter
        (fun machine ->
          if Device.Machine.fits machine circuit then
            List.iter
              (fun level ->
                let compiled = Pipeline.compile_level machine circuit ~level in
                incr n;
                check_text
                  (Printf.sprintf "%s on %s at %s" name machine.Device.Machine.name
                     compiled.Triq.Compiled.compiler)
                  (Reference.executable compiled) (Backend.Emit.executable compiled))
              Triq.Pass.all_levels)
        Machines.all)
    (Bench_kit.Programs.all @ Bench_kit.Programs.extras);
  Alcotest.(check bool) "every vendor covered" true (!n > 200)

let test_diff_fuzz () =
  let rng = Mathkit.Rng.create 2019 in
  let gen g = g ~max_qubits:8 ~max_gates:40 rng in
  for i = 1 to 300 do
    let name = Printf.sprintf "fuzz %d" i in
    let c = gen Proptest.Gen.ibm_visible_circuit in
    check_text (name ^ " qasm")
      (Reference.qasm_circuit ~n_qubits:c.Circuit.n_qubits ~name c)
      (Backend.Qasm_emit.emit_circuit ~n_qubits:c.Circuit.n_qubits ~name c);
    let c = gen Proptest.Gen.rigetti_visible_circuit in
    check_text (name ^ " quil") (Reference.quil_render ~name c.Circuit.gates)
      (Backend.Quil_emit.emit_circuit ~name c);
    let c = gen Proptest.Gen.umd_visible_circuit in
    check_text (name ^ " ti") (Reference.ti_render ~name c.Circuit.gates)
      (Backend.Ti_emit.emit_circuit ~name c);
    let c = gen Proptest.Gen.circuit in
    check_text (name ^ " program") (Reference.qasm_program ~name c)
      (Backend.Qasm_emit.emit_program ~name c)
  done

(* Angles whose text is easy to get wrong: a signed zero next to an
   unsigned one (a float-keyed cache would print both as "0"), the
   smallest subnormal, exponent forms, +-pi/2 repeated, and both NaN
   signs. *)
let tricky_angles =
  [ 0.0; -0.0; 5e-324; 1e-05; 1e300; Float.pi /. 2.0; -.(Float.pi /. 2.0);
    Float.pi /. 2.0; nan; -.nan; 0.0; -0.0 ]

let test_diff_tricky_angles () =
  let angles = tricky_angles in
  let on_qubit f = List.mapi (fun i a -> f a (i mod 3)) angles in
  let ibm =
    Circuit.create 3
      (on_qubit (fun a q -> G.One (G.U1 a, q))
      @ on_qubit (fun a q -> G.One (G.U3 (a, -.a, a), q))
      @ [ G.Two (G.Cnot, 0, 2); G.Measure 1 ])
  in
  check_text "qasm" (Reference.qasm_circuit ~n_qubits:3 ~name:"t" ibm)
    (Backend.Qasm_emit.emit_circuit ~n_qubits:3 ~name:"t" ibm);
  let rigetti =
    Circuit.create 3
      (on_qubit (fun a q -> G.One (G.Rz a, q))
      @ on_qubit (fun a q -> G.One (G.Rx a, q))
      @ [ G.Two (G.Cz, 0, 2); G.Measure 1 ])
  in
  check_text "quil" (Reference.quil_render ~name:"t" rigetti.Circuit.gates)
    (Backend.Quil_emit.emit_circuit ~name:"t" rigetti);
  let umd =
    Circuit.create 3
      (on_qubit (fun a q -> G.One (G.Rxy (a, -.a), q))
      @ on_qubit (fun a q -> G.Two (G.Xx a, q, (q + 1) mod 3))
      @ [ G.Measure 1 ])
  in
  check_text "ti" (Reference.ti_render ~name:"t" umd.Circuit.gates)
    (Backend.Ti_emit.emit_circuit ~name:"t" umd);
  let program =
    Circuit.create 3
      (on_qubit (fun a q -> G.One (G.Rxy (a, a), q))
      @ on_qubit (fun a q -> G.Two (G.Xx a, q, (q + 1) mod 3)))
  in
  check_text "program" (Reference.qasm_program ~name:"t" program)
    (Backend.Qasm_emit.emit_program ~name:"t" program);
  (* The reference itself tells the signed zeros and NaNs apart. *)
  let text = Backend.Quil_emit.emit_circuit ~name:"t" rigetti in
  List.iter
    (fun s -> Alcotest.(check bool) s true (contains text s))
    [ "RZ(0) 0"; "RZ(-0) 1"; "RZ(4.9406564584124654e-324) 2"; "RZ(1.0000000000000001e-05) 0";
      "RZ(1.5707963267948966) 2"; "RZ(-1.5707963267948966) 0" ]

(* ---------- Dispatch ---------- *)

let test_emit_dispatch () =
  Alcotest.(check string) "ibm" "OpenQASM 2.0"
    (Backend.Emit.format_name (compile Machines.ibmq16));
  Alcotest.(check string) "rigetti" "Quil"
    (Backend.Emit.format_name (compile Machines.aspen3));
  Alcotest.(check string) "umd" "UMD TI ASM"
    (Backend.Emit.format_name (compile Machines.umdti));
  List.iter
    (fun machine ->
      let text = Backend.Emit.executable (compile machine) in
      if String.length text < 20 then Alcotest.fail "suspiciously short executable")
    Machines.all

let () =
  Alcotest.run "backend"
    [
      ( "qasm",
        [
          Alcotest.test_case "structure" `Quick test_qasm_structure;
          Alcotest.test_case "foreign gates rejected" `Quick test_qasm_rejects_foreign_gates;
          Alcotest.test_case "wrong vendor rejected" `Quick test_qasm_rejects_wrong_vendor;
          Alcotest.test_case "roundtrip gates" `Quick test_qasm_roundtrip;
          Alcotest.test_case "roundtrip unitary" `Quick test_qasm_roundtrip_unitary;
          Alcotest.test_case "parse errors" `Quick test_qasm_parse_errors;
          Alcotest.test_case "readout map" `Quick test_qasm_parse_readout_map;
        ] );
      ( "quil",
        [
          Alcotest.test_case "structure" `Quick test_quil_structure;
          Alcotest.test_case "wrong vendor rejected" `Quick test_quil_rejects_wrong_vendor;
          Alcotest.test_case "visible only" `Quick test_quil_no_foreign_gates;
          Alcotest.test_case "roundtrip gates" `Quick test_quil_roundtrip;
          Alcotest.test_case "roundtrip unitary" `Quick test_quil_roundtrip_unitary;
          Alcotest.test_case "parse errors" `Quick test_quil_parse_errors;
        ] );
      ( "ti",
        [
          Alcotest.test_case "structure" `Quick test_ti_structure;
          Alcotest.test_case "wrong vendor rejected" `Quick test_ti_rejects_wrong_vendor;
          Alcotest.test_case "roundtrip" `Quick test_ti_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_ti_parse_errors;
        ] );
      ( "dialects",
        [
          Alcotest.test_case "qasm whitespace/sci-notation" `Quick
            test_qasm_whitespace_dialects;
          Alcotest.test_case "quil whitespace/sci-notation" `Quick
            test_quil_whitespace_dialects;
          Alcotest.test_case "ti whitespace/sci-notation" `Quick
            test_ti_whitespace_dialects;
        ] );
      ("dispatch", [ Alcotest.test_case "all machines" `Quick test_emit_dispatch ]);
      ( "differential",
        [
          Alcotest.test_case "every executable" `Quick test_diff_executables;
          Alcotest.test_case "fuzz circuits" `Quick test_diff_fuzz;
          Alcotest.test_case "tricky angles" `Quick test_diff_tricky_angles;
        ] );
    ]
