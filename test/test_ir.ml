(* Tests for the gate IR: gate algebra, circuits, DAG layering and — most
   importantly — exact unitary equivalence of every decomposition. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Dag = Ir.Dag
module Dec = Ir.Decompose
module Mat = Ir.Matrices
module Spec = Ir.Spec
module M = Mathkit.Matrix
module Q = Mathkit.Quaternion

let circuit n gates = Circuit.create n gates

let check_equiv name n reference gates =
  let u_ref = Mat.circuit_unitary (circuit n reference) in
  let u = Mat.circuit_unitary (circuit n gates) in
  Alcotest.(check bool) name true (M.proportional ~eps:1e-9 u_ref u)

(* ---------- Gate ---------- *)

let test_gate_qubits () =
  Alcotest.(check (list int)) "one" [ 3 ] (G.qubits (G.One (G.H, 3)));
  Alcotest.(check (list int)) "two" [ 1; 2 ] (G.qubits (G.Two (G.Cnot, 1, 2)));
  Alcotest.(check (list int)) "ccx" [ 0; 1; 2 ] (G.qubits (G.Ccx (0, 1, 2)));
  Alcotest.(check int) "arity" 3 (G.arity (G.Cswap (0, 1, 2)))

let test_gate_validity () =
  Alcotest.(check bool) "in range" true (G.valid_on 3 (G.Two (G.Cz, 0, 2)));
  Alcotest.(check bool) "out of range" false (G.valid_on 2 (G.Two (G.Cz, 0, 2)));
  Alcotest.(check bool) "duplicate operand" false (G.valid_on 4 (G.Two (G.Cnot, 1, 1)))

let test_gate_map_qubits () =
  let g = G.map_qubits (fun q -> q + 10) (G.Two (G.Cnot, 0, 1)) in
  Alcotest.(check (list int)) "renamed" [ 10; 11 ] (G.qubits g);
  Alcotest.check_raises "collapse rejected"
    (Invalid_argument "Gate.map_qubits: renaming collapsed operands") (fun () ->
      ignore (G.map_qubits (fun _ -> 0) (G.Two (G.Cnot, 0, 1))))

let test_gate_equal () =
  Alcotest.(check bool) "same rotation" true
    (G.equal (G.One (G.Rz 0.5, 0)) (G.One (G.Rz 0.5, 0)));
  Alcotest.(check bool) "different angle" false
    (G.equal (G.One (G.Rz 0.5, 0)) (G.One (G.Rz 0.6, 0)));
  Alcotest.(check bool) "different kind" false
    (G.equal (G.One (G.X, 0)) (G.One (G.Y, 0)))

let test_gate_quaternions_match_matrices () =
  (* For every named 1Q gate, the quaternion view and the matrix view must
     agree up to global phase. *)
  let cases : G.one_q list =
    [
      G.X; G.Y; G.Z; G.H; G.S; G.Sdg; G.T; G.Tdg;
      G.Rx 0.3; G.Ry 1.2; G.Rz (-0.7); G.Rxy (0.9, 0.4);
      G.U1 0.8; G.U2 (0.3, 1.1); G.U3 (0.5, 0.2, -0.9);
    ]
  in
  List.iter
    (fun k ->
      let via_quat = Q.to_matrix (G.one_q_to_quaternion k) in
      let direct = Mat.one_q k in
      if not (M.proportional ~eps:1e-9 via_quat direct) then
        Alcotest.failf "quaternion/matrix mismatch for %s"
          (G.to_string (G.One (k, 0))))
    cases

(* ---------- Circuit ---------- *)

let bv4_like =
  circuit 4
    [
      G.One (G.X, 3); G.One (G.H, 0); G.One (G.H, 1); G.One (G.H, 2);
      G.One (G.H, 3); G.Two (G.Cnot, 1, 3); G.One (G.H, 0); G.One (G.H, 1);
      G.One (G.H, 2); G.Measure 0; G.Measure 1; G.Measure 2;
    ]

let test_circuit_counts () =
  Alcotest.(check int) "gates" 12 (Circuit.gate_count bv4_like);
  Alcotest.(check int) "1q" 8 (Circuit.one_q_count bv4_like);
  Alcotest.(check int) "2q" 1 (Circuit.two_q_count bv4_like);
  Alcotest.(check int) "measures" 3 (Circuit.measure_count bv4_like)

let test_circuit_used_and_measured () =
  Alcotest.(check (list int)) "used" [ 0; 1; 2; 3 ] (Circuit.used_qubits bv4_like);
  Alcotest.(check (list int)) "measured" [ 0; 1; 2 ] (Circuit.measured_qubits bv4_like)

let test_circuit_body () =
  Alcotest.(check int) "body drops measures" 0
    (Circuit.measure_count (Circuit.body bv4_like))

let test_circuit_create_rejects_bad_gates () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (circuit 2 [ G.Two (G.Cnot, 0, 5) ]);
       false
     with Invalid_argument _ -> true)

let test_circuit_concat_append () =
  let a = circuit 2 [ G.One (G.H, 0) ] in
  let b = circuit 2 [ G.Two (G.Cnot, 0, 1) ] in
  Alcotest.(check int) "concat" 2 (Circuit.gate_count (Circuit.concat a b));
  Alcotest.(check int) "append" 2 (Circuit.gate_count (Circuit.append a [ G.One (G.X, 1) ]))

let test_circuit_compact () =
  let c = circuit 10 [ G.Two (G.Cnot, 3, 7); G.Measure 3; G.Measure 7 ] in
  let compacted, mapping = Circuit.compact c in
  Alcotest.(check int) "two qubits left" 2 compacted.Circuit.n_qubits;
  Alcotest.(check (list (pair int int))) "mapping" [ (3, 0); (7, 1) ] mapping;
  Alcotest.(check (list int)) "renamed" [ 0; 1 ]
    (Circuit.used_qubits compacted)

let test_circuit_map_qubits () =
  let c = circuit 2 [ G.Two (G.Cnot, 0, 1) ] in
  let mapped = Circuit.map_qubits ~n_qubits:5 (fun q -> q + 3) c in
  Alcotest.(check (list int)) "used" [ 3; 4 ] (Circuit.used_qubits mapped)

(* ---------- Dag ---------- *)

let test_dag_layers () =
  let d = Dag.of_circuit bv4_like in
  (* Layer 0: X q3 and the three H on q0..q2 are independent. *)
  let layers = Dag.layers d in
  Alcotest.(check int) "layer0 width" 4 (List.length (List.hd layers));
  Alcotest.(check int) "depth" (Dag.depth d) (List.length layers)

let test_dag_chain_depth () =
  let chain = circuit 1 [ G.One (G.H, 0); G.One (G.X, 0); G.One (G.H, 0) ] in
  Alcotest.(check int) "serial depth" 3 (Dag.depth (Dag.of_circuit chain))

let test_dag_parallel_depth () =
  let par = circuit 3 [ G.One (G.H, 0); G.One (G.H, 1); G.One (G.H, 2) ] in
  Alcotest.(check int) "parallel depth" 1 (Dag.depth (Dag.of_circuit par));
  Alcotest.(check (float 1e-9)) "parallelism" 3.0 (Dag.parallelism (Dag.of_circuit par))

let test_dag_two_q_depth () =
  let c =
    circuit 3
      [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.One (G.X, 0) ]
  in
  Alcotest.(check int) "2q layers" 2 (Dag.two_q_depth (Dag.of_circuit c))

let test_dag_predecessors () =
  let c = circuit 2 [ G.One (G.H, 0); G.One (G.H, 1); G.Two (G.Cnot, 0, 1) ] in
  let d = Dag.of_circuit c in
  Alcotest.(check (list int)) "cnot depends on both" [ 0; 1 ] (Dag.predecessors d 2);
  Alcotest.(check (list int)) "first gate free" [] (Dag.predecessors d 0)

let test_dag_critical_path () =
  let c =
    circuit 3
      [ G.One (G.H, 0); G.One (G.H, 1); G.Two (G.Cnot, 0, 1); G.One (G.X, 2);
        G.One (G.T, 1) ]
  in
  let d = Dag.of_circuit c in
  let path = Dag.critical_path d in
  Alcotest.(check int) "length = depth" (Dag.depth d) (List.length path);
  (* Consecutive path elements must be dependent (share a qubit). *)
  let rec check = function
    | i :: (j :: _ as rest) ->
      let qi = G.qubits (List.nth c.Circuit.gates i) in
      let qj = G.qubits (List.nth c.Circuit.gates j) in
      if not (List.exists (fun q -> List.mem q qj) qi) then
        Alcotest.fail "path elements independent";
      check rest
    | [ _ ] | [] -> ()
  in
  check path;
  Alcotest.(check (list int)) "empty circuit" []
    (Dag.critical_path (Dag.of_circuit (Circuit.empty 1)))

let test_dag_empty () =
  let d = Dag.of_circuit (Circuit.empty 2) in
  Alcotest.(check int) "no layers" 0 (Dag.depth d);
  Alcotest.(check (list (list string))) "layers empty" []
    (List.map (List.map G.to_string) (Dag.layers d))

(* ---------- Decompose: exact unitary equivalence ---------- *)

let test_decompose_swap () =
  check_equiv "swap = 3 cnot" 2 [ G.Two (G.Swap, 0, 1) ] (Dec.swap 0 1)

let test_decompose_cz () =
  check_equiv "cz = h cnot h" 2 [ G.Two (G.Cz, 0, 1) ] (Dec.cz 0 1)

let test_decompose_ccx () =
  check_equiv "toffoli" 3 [ G.Ccx (0, 1, 2) ] (Dec.ccx 0 1 2)

let test_decompose_cswap () =
  check_equiv "fredkin" 3 [ G.Cswap (0, 1, 2) ] (Dec.cswap 0 1 2)

let test_decompose_peres () =
  (* Peres = Toffoli then CNOT a,b. *)
  check_equiv "peres" 3
    [ G.Ccx (0, 1, 2); G.Two (G.Cnot, 0, 1) ]
    (Dec.peres 0 1 2)

let test_decompose_or () =
  (* OR truth table via unitary action on basis states: check the
     decomposition against the direct permutation built from De Morgan. *)
  check_equiv "or" 3
    ([ G.One (G.X, 0); G.One (G.X, 1) ]
    @ [ G.Ccx (0, 1, 2) ]
    @ [ G.One (G.X, 0); G.One (G.X, 1); G.One (G.X, 2) ])
    (Dec.logical_or 0 1 2)

let test_decompose_flatten_only_cnot () =
  let c =
    circuit 3
      [
        G.Two (G.Cz, 0, 1); G.Two (G.Swap, 1, 2); G.Ccx (0, 1, 2);
        G.Cswap (2, 0, 1); G.Two (G.Xx (Float.pi /. 4.0), 0, 1); G.Measure 0;
      ]
  in
  let flat = Dec.flatten c in
  List.iter
    (fun g ->
      match (g : G.t) with
      | G.One _ | G.Measure _ | G.Two (G.Cnot, _, _) -> ()
      | other -> Alcotest.failf "non-canonical gate survived: %s" (G.to_string other))
    flat.Circuit.gates

let test_decompose_flatten_preserves_unitary () =
  let c =
    circuit 3
      [ G.Two (G.Cz, 0, 1); G.Ccx (0, 1, 2); G.Two (G.Swap, 1, 2); G.Cswap (0, 1, 2) ]
  in
  let flat = Dec.flatten c in
  Alcotest.(check bool) "flatten equivalent" true
    (M.proportional ~eps:1e-8 (Mat.circuit_unitary c) (Mat.circuit_unitary flat))

let test_decompose_xx () =
  check_equiv "xx via cnot" 2
    [ G.Two (G.Xx 0.61, 0, 1) ]
    (Dec.flatten (circuit 2 [ G.Two (G.Xx 0.61, 0, 1) ])).Circuit.gates

(* ---------- Matrices ---------- *)

let test_matrices_all_unitary () =
  let one_qs : G.one_q list =
    [ G.X; G.Y; G.Z; G.H; G.S; G.Sdg; G.T; G.Tdg; G.Rx 0.4; G.Ry 0.4; G.Rz 0.4;
      G.Rxy (0.4, 0.9); G.U1 0.4; G.U2 (0.1, 0.2); G.U3 (0.1, 0.2, 0.3) ]
  in
  List.iter
    (fun k ->
      if not (M.is_unitary ~eps:1e-9 (Mat.one_q k)) then
        Alcotest.failf "non-unitary 1q: %s" (G.to_string (G.One (k, 0))))
    one_qs;
  List.iter
    (fun k ->
      if not (M.is_unitary ~eps:1e-9 (Mat.two_q k)) then Alcotest.fail "non-unitary 2q")
    [ G.Cnot; G.Cz; G.Xx 0.7; G.Swap ];
  Alcotest.(check bool) "ccx unitary" true (M.is_unitary Mat.ccx);
  Alcotest.(check bool) "cswap unitary" true (M.is_unitary Mat.cswap)

let test_matrices_cnot_action () =
  (* CNOT with control=first operand flips target iff control set. *)
  let u = Mat.two_q G.Cnot in
  Alcotest.(check (float 1e-12)) "10 -> 11" 1.0 (M.get u 3 2).re;
  Alcotest.(check (float 1e-12)) "00 -> 00" 1.0 (M.get u 0 0).re

let test_matrices_circuit_bell () =
  (* H then CNOT makes a Bell state: columns of the unitary applied to |00>
     give amplitude 1/sqrt2 on |00> and |11>. *)
  let u =
    Mat.circuit_unitary (circuit 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ])
  in
  let a00 = M.get u 0 0 and a11 = M.get u 3 0 in
  Alcotest.(check (float 1e-9)) "a00" (1.0 /. sqrt 2.0) a00.re;
  Alcotest.(check (float 1e-9)) "a11" (1.0 /. sqrt 2.0) a11.re

let test_matrices_rejects_measure () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mat.circuit_unitary (circuit 1 [ G.Measure 0 ]));
       false
     with Invalid_argument _ -> true)

(* ---------- Spec ---------- *)

let test_spec_success_rate () =
  let spec = Spec.deterministic [ 0; 1 ] "01" in
  let counts = [ ("01", 900); ("11", 100) ] in
  Alcotest.(check (float 1e-9)) "90%" 0.9 (Spec.success_rate spec counts);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Spec.success_rate spec [])

let test_spec_dominates () =
  let spec = Spec.deterministic [ 0 ] "1" in
  Alcotest.(check bool) "dominates" true (Spec.dominates spec [ ("1", 60); ("0", 40) ]);
  Alcotest.(check bool) "fails" false (Spec.dominates spec [ ("1", 40); ("0", 60) ])

let test_spec_distribution () =
  let spec = Spec.distribution [ 0 ] [ ("0", 0.5); ("1", 0.5) ] in
  Alcotest.(check (float 1e-9)) "perfect" 1.0
    (Spec.success_rate spec [ ("0", 500); ("1", 500) ]);
  Alcotest.(check (float 1e-9)) "skewed" 0.5
    (Spec.success_rate spec [ ("0", 1000) ])

(* Deterministic only when the top outcome is above 0.99, wherever it is
   in the list. *)
let test_spec_of_distribution () =
  let expected dist = (Spec.of_distribution [ 0 ] dist).Spec.expected in
  Alcotest.(check (list (pair string (float 0.0))))
    "p = 0.99 stays a distribution" [ ("0", 0.01); ("1", 0.99) ]
    (expected [ ("0", 0.01); ("1", 0.99) ]);
  Alcotest.(check (list (pair string (float 0.0))))
    "p = 0.991 is deterministic" [ ("1", 1.0) ]
    (expected [ ("0", 0.009); ("1", 0.991) ])

let test_spec_validation () =
  Alcotest.(check bool) "bad length" true
    (try ignore (Spec.deterministic [ 0; 1 ] "0"); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad char" true
    (try ignore (Spec.deterministic [ 0 ] "x"); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "over 1" true
    (try ignore (Spec.distribution [ 0 ] [ ("0", 0.9); ("1", 0.9) ]); false
     with Invalid_argument _ -> true)

let controlled u =
  (* Block diag(I, U) in the (control, target) basis. *)
  let m = M.create 4 4 in
  M.set m 0 0 Mathkit.Cplx.one;
  M.set m 1 1 Mathkit.Cplx.one;
  for r = 0 to 1 do
    for c = 0 to 1 do
      M.set m (2 + r) (2 + c) (M.get u r c)
    done
  done;
  m

let check_controlled name reference gates =
  let u = Mat.circuit_unitary (circuit 2 gates) in
  Alcotest.(check bool) name true (M.proportional ~eps:1e-9 (controlled reference) u)

let test_decompose_iswap () =
  check_equiv "iswap via cnot" 2 [ G.Two (G.Iswap, 0, 1) ] (Dec.iswap 0 1);
  check_equiv "swap via iswap" 2 [ G.Two (G.Swap, 0, 1) ] (Dec.swap_via_iswap 0 1);
  (* iSWAP costs two interactions in the parametric form vs three CNOTs. *)
  Alcotest.(check int) "two 2q gates" 2
    (Circuit.two_q_count (circuit 2 (Dec.swap_via_iswap 0 1)))

let test_decompose_controlled_gates () =
  check_controlled "cu1" (Mat.one_q (G.U1 0.7)) (Dec.cu1 0.7 0 1);
  check_controlled "crz" (Mat.one_q (G.Rz 0.9)) (Dec.crz 0.9 0 1);
  check_controlled "cry" (Mat.one_q (G.Ry 1.3)) (Dec.cry 1.3 0 1);
  check_controlled "crx" (Mat.one_q (G.Rx 0.5)) (Dec.crx 0.5 0 1);
  check_controlled "ch" (Mat.one_q G.H) (Dec.ch 0 1);
  check_controlled "cy" (Mat.one_q G.Y) (Dec.cy 0 1);
  check_controlled "cu3" (Mat.one_q (G.U3 (0.7, 0.3, 1.1))) (Dec.cu3 0.7 0.3 1.1 0 1)

(* ---------- Stats ---------- *)

module Stats = Ir.Stats

let test_stats_counts () =
  let st = Stats.of_circuit bv4_like in
  Alcotest.(check int) "qubits" 4 st.Stats.n_qubits;
  Alcotest.(check int) "total" 12 st.Stats.total_gates;
  Alcotest.(check int) "1q" 8 st.Stats.one_q;
  Alcotest.(check int) "2q" 1 st.Stats.two_q;
  Alcotest.(check int) "multi" 0 st.Stats.multi_q;
  Alcotest.(check int) "measures" 3 st.Stats.measures;
  Alcotest.(check int) "depth matches dag" (Dag.depth (Dag.of_circuit bv4_like))
    st.Stats.depth

let test_stats_histogram () =
  let st = Stats.of_circuit bv4_like in
  Alcotest.(check (option int)) "H count" (Some 7) (List.assoc_opt "H" st.Stats.histogram);
  Alcotest.(check (option int)) "X count" (Some 1) (List.assoc_opt "X" st.Stats.histogram);
  Alcotest.(check (option int)) "CNOT count" (Some 1)
    (List.assoc_opt "CNOT" st.Stats.histogram);
  Alcotest.(check (option int)) "measures" (Some 3)
    (List.assoc_opt "MEASURE" st.Stats.histogram);
  (* Rotations are keyed by family, not angle. *)
  let c = circuit 1 [ G.One (G.Rz 0.1, 0); G.One (G.Rz 0.2, 0) ] in
  Alcotest.(check (option int)) "Rz merged" (Some 2)
    (List.assoc_opt "Rz" (Stats.of_circuit c).Stats.histogram)

let test_stats_interaction_degree () =
  let c =
    circuit 4 [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 0, 2); G.Two (G.Cnot, 0, 1) ]
  in
  Alcotest.(check (array int)) "degrees" [| 2; 1; 1; 0 |] (Stats.interaction_degree c);
  let t = circuit 3 [ G.Ccx (0, 1, 2) ] in
  Alcotest.(check (array int)) "toffoli clique" [| 2; 2; 2 |]
    (Stats.interaction_degree t)

(* ---------- qcheck ---------- *)

let gate_gen n =
  QCheck.Gen.(
    oneof
      [
        map2 (fun q theta -> G.One (G.Rz theta, q)) (int_range 0 (n - 1)) (float_range 0.0 6.28);
        map2 (fun q theta -> G.One (G.Rx theta, q)) (int_range 0 (n - 1)) (float_range 0.0 6.28);
        map (fun q -> G.One (G.H, q)) (int_range 0 (n - 1));
        map2
          (fun a d -> G.Two (G.Cnot, a, (a + 1 + d) mod n))
          (int_range 0 (n - 1)) (int_range 0 (n - 2));
      ])

let circuit_gen =
  QCheck.Gen.(
    let n = 4 in
    map (fun gates -> circuit n gates) (list_size (int_range 0 20) (gate_gen n)))

let circuit_arb = QCheck.make circuit_gen

let prop_flatten_unitary =
  QCheck.Test.make ~name:"flatten preserves unitary" ~count:100 circuit_arb
    (fun c ->
      M.proportional ~eps:1e-7 (Mat.circuit_unitary c)
        (Mat.circuit_unitary (Dec.flatten c)))

let prop_dag_depth_bounds =
  QCheck.Test.make ~name:"1 <= depth <= gate count (nonempty)" ~count:200
    circuit_arb (fun c ->
      let d = Dag.depth (Dag.of_circuit c) in
      if Circuit.gate_count c = 0 then d = 0
      else d >= 1 && d <= Circuit.gate_count c)

let prop_layers_disjoint =
  QCheck.Test.make ~name:"layers act on disjoint qubits" ~count:200 circuit_arb
    (fun c ->
      List.for_all
        (fun layer ->
          let qs = List.concat_map G.qubits layer in
          List.length qs = List.length (List.sort_uniq compare qs))
        (Dag.layers (Dag.of_circuit c)))

let prop_circuit_unitary_is_unitary =
  QCheck.Test.make ~name:"circuit unitary is unitary" ~count:50 circuit_arb
    (fun c -> M.is_unitary ~eps:1e-7 (Mat.circuit_unitary c))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_flatten_unitary;
      prop_dag_depth_bounds;
      prop_layers_disjoint;
      prop_circuit_unitary_is_unitary;
    ]

let () =
  Alcotest.run "ir"
    [
      ( "gate",
        [
          Alcotest.test_case "qubits/arity" `Quick test_gate_qubits;
          Alcotest.test_case "validity" `Quick test_gate_validity;
          Alcotest.test_case "map_qubits" `Quick test_gate_map_qubits;
          Alcotest.test_case "equality" `Quick test_gate_equal;
          Alcotest.test_case "quaternion vs matrix" `Quick
            test_gate_quaternions_match_matrices;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "used/measured" `Quick test_circuit_used_and_measured;
          Alcotest.test_case "body" `Quick test_circuit_body;
          Alcotest.test_case "validation" `Quick test_circuit_create_rejects_bad_gates;
          Alcotest.test_case "concat/append" `Quick test_circuit_concat_append;
          Alcotest.test_case "compact" `Quick test_circuit_compact;
          Alcotest.test_case "map_qubits" `Quick test_circuit_map_qubits;
        ] );
      ( "dag",
        [
          Alcotest.test_case "layers" `Quick test_dag_layers;
          Alcotest.test_case "chain depth" `Quick test_dag_chain_depth;
          Alcotest.test_case "parallel depth" `Quick test_dag_parallel_depth;
          Alcotest.test_case "2q depth" `Quick test_dag_two_q_depth;
          Alcotest.test_case "predecessors" `Quick test_dag_predecessors;
          Alcotest.test_case "empty circuit" `Quick test_dag_empty;
          Alcotest.test_case "critical path" `Quick test_dag_critical_path;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "swap" `Quick test_decompose_swap;
          Alcotest.test_case "cz" `Quick test_decompose_cz;
          Alcotest.test_case "toffoli" `Quick test_decompose_ccx;
          Alcotest.test_case "fredkin" `Quick test_decompose_cswap;
          Alcotest.test_case "peres" `Quick test_decompose_peres;
          Alcotest.test_case "or" `Quick test_decompose_or;
          Alcotest.test_case "xx" `Quick test_decompose_xx;
          Alcotest.test_case "flatten canonical" `Quick test_decompose_flatten_only_cnot;
          Alcotest.test_case "flatten equivalence" `Quick
            test_decompose_flatten_preserves_unitary;
          Alcotest.test_case "controlled gates" `Quick test_decompose_controlled_gates;
          Alcotest.test_case "iswap" `Quick test_decompose_iswap;
        ] );
      ( "matrices",
        [
          Alcotest.test_case "all unitary" `Quick test_matrices_all_unitary;
          Alcotest.test_case "cnot action" `Quick test_matrices_cnot_action;
          Alcotest.test_case "bell circuit" `Quick test_matrices_circuit_bell;
          Alcotest.test_case "rejects measure" `Quick test_matrices_rejects_measure;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counts" `Quick test_stats_counts;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "interaction degree" `Quick test_stats_interaction_degree;
        ] );
      ( "spec",
        [
          Alcotest.test_case "success rate" `Quick test_spec_success_rate;
          Alcotest.test_case "dominates" `Quick test_spec_dominates;
          Alcotest.test_case "distribution" `Quick test_spec_distribution;
          Alcotest.test_case "of distribution" `Quick test_spec_of_distribution;
          Alcotest.test_case "validation" `Quick test_spec_validation;
        ] );
      ("properties", qcheck_cases);
    ]
