(* Tests for the TriQ compiler core: reliability matrix (incl. the paper's
   Figure 6 worked example), mapper, router, direction fixing, vendor gate
   translation and 1Q optimization. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Dec = Ir.Decompose
module Mat = Ir.Matrices
module M = Mathkit.Matrix
module Q = Mathkit.Quaternion
module Rng = Mathkit.Rng
module Topology = Device.Topology
module Calibration = Device.Calibration
module Machines = Device.Machines
module Gateset = Device.Gateset
module Reliability = Triq.Reliability
module Placement = Triq.Placement
module Router = Triq.Router
module Direction = Triq.Direction
module Translate = Triq.Translate
module Oneq_opt = Triq.Oneq_opt
module Pipeline = Triq.Pipeline

let circuit n gates = Circuit.create n gates

let proportional_circuits name a b =
  Alcotest.(check bool) name true
    (M.proportional ~eps:1e-8 (Mat.circuit_unitary a) (Mat.circuit_unitary b))

(* ---------- Reliability: Figure 6 ---------- *)

let fig6_reliability () =
  Reliability.of_calibration ~noise_aware:true
    Machines.example_8q.Device.Machine.topology Machines.example_8q_calibration

let test_fig6_direct_edges () =
  let r = fig6_reliability () in
  Alcotest.(check (float 1e-9)) "edge 0-1" 0.9 (Reliability.score r 0 1);
  Alcotest.(check (float 1e-9)) "edge 2-6" 0.7 (Reliability.score r 2 6);
  Alcotest.(check (float 1e-9)) "edge 3-7" 0.8 (Reliability.score r 3 7)

let test_fig6_swap_entries () =
  let r = fig6_reliability () in
  (* The caption's example: (1,6) = 0.9^3 * 0.8 = 0.58. *)
  Alcotest.(check (float 0.0075)) "(1,6)" 0.58 (Reliability.score r 1 6);
  (* Asymmetry: (0,2) swaps 0->1 then uses edge 1-2; (2,0) swaps 2->1 then
     uses edge 1-0 — the paper's matrix shows 0.58 vs 0.46. *)
  Alcotest.(check (float 0.0075)) "(0,2)" 0.58 (Reliability.score r 0 2);
  Alcotest.(check (float 0.0075)) "(2,0)" 0.46 (Reliability.score r 2 0);
  (* The paper prints 0.33 for (0,3); the exact value 0.9^3*0.8^3*0.9 is
     0.3359 — the published matrix truncates rather than rounds. *)
  Alcotest.(check (float 0.007)) "(0,3)" 0.33 (Reliability.score r 0 3);
  Alcotest.(check (float 0.0075)) "(0,5)" 0.65 (Reliability.score r 0 5);
  Alcotest.(check (float 0.0075)) "(0,6)" 0.42 (Reliability.score r 0 6);
  Alcotest.(check (float 0.0075)) "(0,7)" 0.24 (Reliability.score r 0 7);
  Alcotest.(check (float 0.0075)) "(3,0)" 0.33 (Reliability.score r 3 0);
  Alcotest.(check (float 0.0075)) "(1,3)" 0.46 (Reliability.score r 1 3);
  Alcotest.(check (float 0.0075)) "(4,2)" 0.42 (Reliability.score r 4 2);
  Alcotest.(check (float 0.0075)) "(7,0)" 0.24 (Reliability.score r 7 0)

let test_fig6_swap_path () =
  let r = fig6_reliability () in
  (* Best path for (1,6): swap 1 toward 5 (neighbour of 6). *)
  Alcotest.(check (list int)) "path 1->6 via 5" [ 1; 5 ] (Reliability.swap_path r 1 6);
  (* Adjacent pair: no swap needed, path is the singleton control. *)
  Alcotest.(check (list int)) "path 0->1" [ 0 ] (Reliability.swap_path r 0 1)

let test_reliability_noise_unaware_is_hops () =
  (* With uniform edge reliability the score only depends on hop count. *)
  let topo = Topology.line 4 in
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 4 0.001)
      ~two_q:[ ((0, 1), 0.02); ((1, 2), 0.3); ((2, 3), 0.02) ]
      ~readout:(Array.make 4 0.01)
  in
  let r = Reliability.of_calibration ~noise_aware:false topo cal in
  (* Average error = (0.02 + 0.3 + 0.02)/3; every edge treated alike. *)
  Alcotest.(check (float 1e-9)) "symmetric edges" (Reliability.score r 0 1)
    (Reliability.score r 1 2);
  (* Noise-aware mode must penalize the bad middle link. *)
  let rn = Reliability.of_calibration ~noise_aware:true topo cal in
  Alcotest.(check bool) "bad edge scored lower" true
    (Reliability.score rn 1 2 < Reliability.score rn 0 1)

let test_reliability_readout () =
  let r = fig6_reliability () in
  Alcotest.(check (float 1e-9)) "readout rel" 0.95 (Reliability.readout_reliability r 0)

let test_reliability_fully_connected () =
  let topo = Topology.fully_connected 5 in
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 5 0.001)
      ~two_q:(List.filter_map
                (fun (a, b) -> if a < b then Some ((a, b), 0.01) else None)
                (Topology.edges topo))
      ~readout:(Array.make 5 0.01)
  in
  let r = Reliability.of_calibration ~noise_aware:true topo cal in
  (* Every pair is direct: score = edge reliability, no swaps anywhere. *)
  Alcotest.(check (float 1e-9)) "direct" 0.99 (Reliability.score r 0 4);
  Alcotest.(check (list int)) "no swaps" [ 0 ] (Reliability.swap_path r 0 4)

(* ---------- Mapper ---------- *)

let solve_bb ?node_budget r c = Layout.Bb.solve ?node_budget (Placement.problem r c)

let test_mapper_interactions () =
  let c =
    circuit 3
      [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.Measure 0 ]
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "aggregated" [ ((0, 1), 2); ((1, 2), 1) ] (Placement.interactions c)

let test_mapper_trivial () =
  Alcotest.(check (array int)) "identity" [| 0; 1; 2 |]
    (Placement.trivial ~n_program:3 ~n_hardware:5);
  Alcotest.(check bool) "too big" true
    (try ignore (Placement.trivial ~n_program:6 ~n_hardware:5); false
     with Invalid_argument _ -> true)

let test_mapper_prefers_good_edge () =
  (* Line of 4; edge 2-3 is much better than 0-1. A single-CNOT program
     must land on qubits 2,3. *)
  let topo = Topology.line 4 in
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 4 0.001)
      ~two_q:[ ((0, 1), 0.2); ((1, 2), 0.15); ((2, 3), 0.01) ]
      ~readout:(Array.make 4 0.01)
  in
  let r = Reliability.of_calibration ~noise_aware:true topo cal in
  let c = circuit 2 [ G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ] in
  let result = solve_bb r c in
  Alcotest.(check bool) "optimal search" true result.Layout.Report.proven_optimal;
  let placed = List.sort compare (Array.to_list result.Layout.Report.placement) in
  Alcotest.(check (list int)) "uses best edge" [ 2; 3 ] placed

let test_mapper_avoids_bad_readout () =
  (* Fully-connected 3q, all edges equal, qubit 0 has terrible readout. *)
  let topo = Topology.fully_connected 3 in
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 3 0.001)
      ~two_q:[ ((0, 1), 0.01); ((0, 2), 0.01); ((1, 2), 0.01) ]
      ~readout:[| 0.4; 0.01; 0.01 |]
  in
  let r = Reliability.of_calibration ~noise_aware:true topo cal in
  let c = circuit 2 [ G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ] in
  let result = solve_bb r c in
  Array.iter
    (fun h -> if h = 0 then Alcotest.fail "placed a measured qubit on bad readout")
    result.Layout.Report.placement

let test_mapper_objective_matches_evaluate () =
  let r = fig6_reliability () in
  let c =
    circuit 3 [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.Measure 2 ]
  in
  let pr = Placement.problem r c in
  let result = Layout.Bb.solve pr in
  let min_rel, _ = Layout.Problem.evaluate pr result.Layout.Report.placement in
  Alcotest.(check (float 1e-9)) "objective consistent" result.Layout.Report.objective
    min_rel

let test_mapper_budget_truncation () =
  let r = fig6_reliability () in
  let c =
    circuit 5
      [
        G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.Two (G.Cnot, 2, 3);
        G.Two (G.Cnot, 3, 4); G.Two (G.Cnot, 4, 0);
      ]
  in
  let result = solve_bb ~node_budget:3 r c in
  Alcotest.(check bool) "reported truncated" false result.Layout.Report.proven_optimal;
  (* Placement must still be a valid injective assignment. *)
  let sorted = List.sort_uniq compare (Array.to_list result.Layout.Report.placement) in
  Alcotest.(check int) "injective" 5 (List.length sorted)

(* ---------- Router ---------- *)

let line4_reliability () =
  let topo = Topology.line 4 in
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 4 0.001)
      ~two_q:[ ((0, 1), 0.05); ((1, 2), 0.05); ((2, 3), 0.05) ]
      ~readout:(Array.make 4 0.01)
  in
  (topo, Reliability.of_calibration ~noise_aware:true topo cal)

let test_router_adjacent_passthrough () =
  let topo, r = line4_reliability () in
  let c = circuit 4 [ G.Two (G.Cnot, 0, 1) ] in
  let routed = Router.route r topo ~placement:[| 0; 1; 2; 3 |] c in
  Alcotest.(check int) "no swaps" 0 routed.Router.swap_count;
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count routed.Router.circuit)

let test_router_inserts_swaps () =
  let topo, r = line4_reliability () in
  let c = circuit 4 [ G.Two (G.Cnot, 0, 3) ] in
  let routed = Router.route r topo ~placement:[| 0; 1; 2; 3 |] c in
  Alcotest.(check int) "two swaps for distance 3" 2 routed.Router.swap_count;
  (* Final CNOT must be on a coupled pair. *)
  List.iter
    (fun g ->
      match (g : G.t) with
      | Two (Cnot, a, b) ->
        Alcotest.(check bool) "coupled" true (Topology.coupled topo a b)
      | _ -> ())
    routed.Router.circuit.Circuit.gates

let test_router_updates_mapping () =
  let topo, r = line4_reliability () in
  let c = circuit 4 [ G.Two (G.Cnot, 0, 3); G.Measure 0; G.Measure 3 ] in
  let routed = Router.route r topo ~placement:[| 0; 1; 2; 3 |] c in
  (* Program qubit 0 moved toward 3; the measure must follow it. *)
  let final = routed.Router.final_placement in
  Alcotest.(check bool) "q0 moved" true (final.(0) <> 0);
  let measures =
    List.filter_map
      (function G.Measure q -> Some q | _ -> None)
      routed.Router.circuit.Circuit.gates
  in
  Alcotest.(check (list int)) "measures track movement" [ final.(0); final.(3) ] measures

let test_router_semantics_preserved () =
  (* Routed circuit (with swaps expanded) must equal the original circuit
     composed with the final permutation. *)
  let topo, r = line4_reliability () in
  let program =
    circuit 4
      [
        G.One (G.H, 0); G.Two (G.Cnot, 0, 3); G.One (G.X, 2); G.Two (G.Cnot, 1, 2);
        G.Two (G.Cnot, 3, 1);
      ]
  in
  let routed = Router.route r topo ~placement:[| 0; 1; 2; 3 |] program in
  let expanded = Translate.expand_swaps routed.Router.circuit in
  (* Build the permutation circuit: program qubit p sits on hardware qubit
     final.(p); compare U_routed against P . U_program where P moves wire p
     to wire final.(p) via swap network. We instead check column-by-column
     action on basis states. *)
  let u_prog = Mat.circuit_unitary program in
  let u_routed = Mat.circuit_unitary expanded in
  let n = 4 in
  let dim = 1 lsl n in
  let final = routed.Router.final_placement in
  (* The routed unitary reads program qubit p on its initial wire (the
     identity placement here) and leaves it on wire final.(p): so
     u_routed[out_idx(row), col] = u_prog[row, col] where out_idx moves
     bit p to position final.(p). *)
  let out_idx idx =
    let bit p = (idx lsr (n - 1 - p)) land 1 in
    let out = ref 0 in
    for p = 0 to n - 1 do
      if bit p = 1 then out := !out lor (1 lsl (n - 1 - final.(p)))
    done;
    !out
  in
  let ok = ref true in
  for col = 0 to dim - 1 do
    for row = 0 to dim - 1 do
      let a = M.get u_prog row col in
      let b = M.get u_routed (out_idx row) col in
      if not (Mathkit.Cplx.approx ~eps:1e-8 a b) then ok := false
    done
  done;
  Alcotest.(check bool) "routing is a permutation conjugation" true !ok

let test_router_rejects_bad_placement () =
  let topo, r = line4_reliability () in
  let c = circuit 2 [ G.Two (G.Cnot, 0, 1) ] in
  Alcotest.(check bool) "duplicate" true
    (try ignore (Router.route r topo ~placement:[| 1; 1 |] c); false
     with Invalid_argument _ -> true)

(* ---------- Direction ---------- *)

let test_direction_fix () =
  let topo = Topology.create 2 [ (0, 1) ] ~directed:true in
  let ok = circuit 2 [ G.Two (G.Cnot, 0, 1) ] in
  let flipped = circuit 2 [ G.Two (G.Cnot, 1, 0) ] in
  Alcotest.(check int) "aligned untouched" 1
    (Circuit.gate_count (Direction.fix topo ok));
  let fixed = Direction.fix topo flipped in
  Alcotest.(check int) "flip adds 4 H" 5 (Circuit.gate_count fixed);
  Alcotest.(check int) "one flip counted" 1 (Direction.flipped_count topo flipped);
  proportional_circuits "flip preserves unitary" flipped fixed

let test_direction_undirected_noop () =
  let topo = Topology.line 2 in
  let c = circuit 2 [ G.Two (G.Cnot, 1, 0) ] in
  Alcotest.(check int) "untouched" 1 (Circuit.gate_count (Direction.fix topo c))

(* ---------- Translate ---------- *)

let test_translate_cnot_ibm () =
  proportional_circuits "ibm cnot is cnot"
    (circuit 2 [ G.Two (G.Cnot, 0, 1) ])
    (circuit 2 (Translate.cnot Gateset.Ibm_visible 0 1))

let test_translate_cnot_rigetti () =
  proportional_circuits "rigetti cnot via cz"
    (circuit 2 [ G.Two (G.Cnot, 0, 1) ])
    (circuit 2 (Translate.cnot Gateset.Rigetti_visible 0 1))

let test_translate_cnot_umd () =
  proportional_circuits "umd cnot via xx"
    (circuit 2 [ G.Two (G.Cnot, 0, 1) ])
    (circuit 2 (Translate.cnot Gateset.Umd_visible 0 1))

let test_translate_expand_swaps () =
  let c = circuit 3 [ G.Two (G.Swap, 0, 2); G.One (G.H, 1) ] in
  let e = Translate.expand_swaps c in
  Alcotest.(check int) "3 cnots + h" 4 (Circuit.gate_count e);
  proportional_circuits "swap expansion equivalent" c e

let all_bases = [ Gateset.Ibm_visible; Gateset.Rigetti_visible; Gateset.Umd_visible ]

let test_translate_emit_rotation_equivalence () =
  let rng = Rng.create 99 in
  List.iter
    (fun basis ->
      for _ = 1 to 100 do
        let q =
          Q.of_axis_angle
            (Rng.gaussian rng, Rng.gaussian rng, Rng.gaussian rng)
            (Rng.float rng *. 2.0 *. Float.pi)
        in
        let gates = Translate.emit_rotation basis 0 q in
        let emitted = circuit 1 gates in
        let reference = Q.to_matrix q in
        if not (M.proportional ~eps:1e-7 reference (Mat.circuit_unitary emitted)) then
          Alcotest.failf "emit_rotation wrong for %s in %s"
            (Format.asprintf "%a" Q.pp q) (Gateset.basis_name basis)
      done)
    all_bases

let test_translate_emit_rotation_visible () =
  let rng = Rng.create 17 in
  List.iter
    (fun basis ->
      for _ = 1 to 50 do
        let q =
          Q.of_axis_angle
            (Rng.gaussian rng, Rng.gaussian rng, Rng.gaussian rng)
            (Rng.float rng *. 2.0 *. Float.pi)
        in
        List.iter
          (fun g ->
            if not (Gateset.gate_visible basis g) then
              Alcotest.failf "emitted non-visible gate %s for %s" (G.to_string g)
                (Gateset.basis_name basis))
          (Translate.emit_rotation basis 0 q)
      done)
    all_bases

let test_translate_emit_identity_empty () =
  List.iter
    (fun basis ->
      Alcotest.(check int) "identity emits nothing" 0
        (List.length (Translate.emit_rotation basis 0 Q.identity)))
    all_bases

let test_translate_pulse_budget () =
  (* Any rotation costs at most 2 pulses on IBM/Rigetti and at most 1 on
     UMD (the paper's point about powerful native 1Q gates). *)
  let rng = Rng.create 23 in
  let max_pulses basis =
    let worst = ref 0 in
    for _ = 1 to 200 do
      let q =
        Q.of_axis_angle
          (Rng.gaussian rng, Rng.gaussian rng, Rng.gaussian rng)
          (Rng.float rng *. 2.0 *. Float.pi)
      in
      let c = circuit 1 (Translate.emit_rotation basis 0 q) in
      worst := max !worst (Gateset.circuit_pulse_count basis c)
    done;
    !worst
  in
  Alcotest.(check int) "ibm <= 2" 2 (max_pulses Gateset.Ibm_visible);
  Alcotest.(check int) "rigetti <= 2" 2 (max_pulses Gateset.Rigetti_visible);
  Alcotest.(check int) "umd <= 1" 1 (max_pulses Gateset.Umd_visible)

(* ---------- Oneq_opt ---------- *)

let test_oneq_merge_cancels () =
  (* H . H = identity: the optimizer must delete both. *)
  let c = circuit 1 [ G.One (G.H, 0); G.One (G.H, 0) ] in
  let o = Oneq_opt.optimize Gateset.Ibm_visible c in
  Alcotest.(check int) "all gone" 0 (Circuit.gate_count o)

let test_oneq_merge_to_z () =
  (* S . S = Z: pure virtual-Z, zero pulses. *)
  let c = circuit 1 [ G.One (G.S, 0); G.One (G.S, 0) ] in
  let o = Oneq_opt.optimize Gateset.Ibm_visible c in
  Alcotest.(check int) "0 pulses" 0 (Gateset.circuit_pulse_count Gateset.Ibm_visible o)

let test_oneq_optimize_equivalence () =
  let rng = Rng.create 5 in
  let kinds = [| G.H; G.X; G.Y; G.S; G.T; G.Rx 0.3; G.Rz 0.9; G.Ry 1.7 |] in
  List.iter
    (fun basis ->
      for _ = 1 to 30 do
        let len = 1 + Rng.int rng 8 in
        let gates = List.init len (fun _ -> G.One (kinds.(Rng.int rng 8), 0)) in
        let c = circuit 1 gates in
        let o = Oneq_opt.optimize basis c in
        if
          not
            (M.proportional ~eps:1e-7 (Mat.circuit_unitary c) (Mat.circuit_unitary o))
        then Alcotest.fail "optimize changed the unitary"
      done)
    all_bases

let test_oneq_optimize_never_worse () =
  let rng = Rng.create 6 in
  List.iter
    (fun basis ->
      for _ = 1 to 30 do
        let len = 1 + Rng.int rng 10 in
        let kinds = [| G.H; G.X; G.S; G.T; G.Rx 0.3 |] in
        let gates = List.init len (fun _ -> G.One (kinds.(Rng.int rng 5), 0)) in
        let c = circuit 1 gates in
        let naive = Oneq_opt.naive basis c in
        let opt = Oneq_opt.optimize basis c in
        let p_naive = Gateset.circuit_pulse_count basis naive in
        let p_opt = Gateset.circuit_pulse_count basis opt in
        if p_opt > p_naive then
          Alcotest.failf "optimization increased pulses (%d > %d)" p_opt p_naive
      done)
    all_bases

let test_oneq_z_before_measure_dropped () =
  let c = circuit 1 [ G.One (G.S, 0); G.Measure 0 ] in
  let o = Oneq_opt.optimize Gateset.Ibm_visible c in
  Alcotest.(check int) "only the measure left" 1 (Circuit.gate_count o)

let test_oneq_flush_before_two_q () =
  let c =
    circuit 2 [ G.One (G.H, 0); G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.One (G.H, 0) ]
  in
  let o = Oneq_opt.optimize Gateset.Ibm_visible c in
  (* H.H cancels before the CNOT; the trailing H must survive as U2. *)
  Alcotest.(check int) "cnot + one u2" 2 (Circuit.gate_count o)

let test_oneq_naive_per_gate () =
  let c = circuit 1 [ G.One (G.H, 0); G.One (G.H, 0) ] in
  let o = Oneq_opt.naive Gateset.Ibm_visible c in
  (* Naive translation does not cancel. *)
  Alcotest.(check int) "two gates stay" 2 (Circuit.gate_count o)

(* ---------- Pipeline ---------- *)

let bv4 =
  circuit 4
    [
      G.One (G.X, 3); G.One (G.H, 0); G.One (G.H, 1); G.One (G.H, 2); G.One (G.H, 3);
      G.Two (G.Cnot, 0, 3); G.Two (G.Cnot, 1, 3); G.Two (G.Cnot, 2, 3);
      G.One (G.H, 0); G.One (G.H, 1); G.One (G.H, 2);
      G.Measure 0; G.Measure 1; G.Measure 2;
    ]

let test_pipeline_all_levels_visible () =
  List.iter
    (fun machine ->
      List.iter
        (fun level ->
          let r = Pipeline.compile_level machine bv4 ~level in
          if not (Gateset.circuit_visible machine.Device.Machine.basis r.Triq.Compiled.hardware)
          then
            Alcotest.failf "non-visible output on %s at %s"
              machine.Device.Machine.name (Triq.Pass.level_name level))
        Pipeline.all_levels)
    [ Machines.ibmq5; Machines.ibmq14; Machines.agave; Machines.umdti ]

let test_pipeline_two_q_on_coupled_pairs () =
  List.iter
    (fun machine ->
      let r = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptCN in
      List.iter
        (fun g ->
          match (g : G.t) with
          | Two (_, a, b) ->
            if not (Topology.coupled machine.Device.Machine.topology a b) then
              Alcotest.failf "2q gate on uncoupled pair %d,%d (%s)" a b
                machine.Device.Machine.name
          | _ -> ())
        r.Triq.Compiled.hardware.Circuit.gates)
    [ Machines.ibmq5; Machines.ibmq14; Machines.ibmq16; Machines.agave ]

let test_pipeline_cnot_direction_respected () =
  let machine = Machines.ibmq5 in
  let r = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptCN in
  List.iter
    (fun g ->
      match (g : G.t) with
      | Two (Cnot, a, b) ->
        if not (Topology.has_directed_edge machine.Device.Machine.topology a b) then
          Alcotest.failf "CNOT %d->%d against hardware direction" a b
      | _ -> ())
    r.Triq.Compiled.hardware.Circuit.gates

let test_pipeline_umd_needs_no_swaps () =
  let r = Pipeline.compile_level Machines.umdti bv4 ~level:Pipeline.OneQOptCN in
  Alcotest.(check int) "fully connected: zero swaps" 0 r.Triq.Compiled.swap_count

let test_pipeline_opt_levels_reduce_pulses () =
  let machine = Machines.ibmq14 in
  let n = Pipeline.compile_level machine bv4 ~level:Pipeline.N in
  let o = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOpt in
  Alcotest.(check bool)
    (Printf.sprintf "pulses %d -> %d" n.Triq.Compiled.pulse_count o.Triq.Compiled.pulse_count)
    true
    (o.Triq.Compiled.pulse_count <= n.Triq.Compiled.pulse_count)

let test_pipeline_comm_opt_reduces_two_q () =
  let machine = Machines.ibmq14 in
  let o = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOpt in
  let c = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptC in
  Alcotest.(check bool)
    (Printf.sprintf "2q %d -> %d" o.Triq.Compiled.two_q_count c.Triq.Compiled.two_q_count)
    true
    (c.Triq.Compiled.two_q_count <= o.Triq.Compiled.two_q_count)

let test_pipeline_esp_in_range () =
  List.iter
    (fun machine ->
      let r = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptCN in
      if r.Triq.Compiled.esp <= 0.0 || r.Triq.Compiled.esp > 1.0 then
        Alcotest.failf "esp out of range: %f" r.Triq.Compiled.esp)
    Machines.all

let test_pipeline_readout_map () =
  let r = Pipeline.compile_level Machines.ibmq5 bv4 ~level:Pipeline.OneQOptCN in
  Alcotest.(check int) "three readouts" 3 (List.length r.Triq.Compiled.readout_map);
  List.iter
    (fun (p, h) ->
      Alcotest.(check int) "follows final placement" r.Triq.Compiled.final_placement.(p) h)
    r.Triq.Compiled.readout_map

let test_pipeline_rejects_oversize () =
  let big = circuit 6 [ G.One (G.H, 5) ] in
  Alcotest.(check bool) "6q on 5q machine" true
    (try ignore (Pipeline.compile_level Machines.ibmq5 big ~level:Pipeline.N); false
     with Invalid_argument _ -> true)

let test_pipeline_level_names () =
  Alcotest.(check string) "cn name" "TriQ-1QOptCN" (Triq.Pass.level_name Pipeline.OneQOptCN);
  List.iter
    (fun l ->
      match Triq.Pass.level_of_string (Triq.Pass.level_name l) with
      | Some l' when l = l' -> ()
      | _ -> Alcotest.fail "level name roundtrip")
    Pipeline.all_levels;
  (* Parsing is case-insensitive in both the short and display forms. *)
  Alcotest.(check bool) "uppercase short" true
    (Triq.Pass.level_of_string "1QOPTCN" = Some Pipeline.OneQOptCN);
  Alcotest.(check bool) "uppercase display" true
    (Triq.Pass.level_of_string "TRIQ-1QOPTC" = Some Pipeline.OneQOptC);
  Alcotest.(check bool) "mixed case" true
    (Triq.Pass.level_of_string "TriQ-n" = Some Pipeline.N);
  List.iter
    (fun s ->
      if Triq.Pass.level_of_string s = None then
        Alcotest.failf "level_strings entry %S does not parse" s)
    Triq.Pass.level_strings;
  Alcotest.(check bool) "unknown" true (Triq.Pass.level_of_string "bogus" = None)

(* Semantic end-to-end check: compiled BV4 on a noiseless simulator of the
   hardware circuit must produce the program's ideal output. Done via
   unitary comparison on the hardware circuit restricted to used qubits. *)
let test_pipeline_semantics_small () =
  let machine = Machines.agave in
  let r = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptCN in
  let hw, mapping = Circuit.compact (Circuit.body r.Triq.Compiled.hardware) in
  (* Build expected: program body mapped through placement and compaction. *)
  let place p = List.assoc r.Triq.Compiled.final_placement.(p) mapping in
  ignore place;
  (* Just sanity-check the compacted hardware circuit is still unitary and
     small; full distribution-level checks live in the simulator tests. *)
  Alcotest.(check bool) "compact <= 4 qubits" true (hw.Circuit.n_qubits <= 4)

let test_pipeline_pass_timings () =
  let r = Pipeline.compile_level Machines.ibmq14 bv4 ~level:Pipeline.OneQOptCN in
  let names = List.map fst r.Triq.Compiled.pass_times_s in
  Alcotest.(check (list string)) "pass order"
    [
      "flatten"; "reliability"; "mapping"; "routing"; "swap-expansion";
      "orientation"; "translation"; "oneq"; "readout";
    ]
    names;
  List.iter
    (fun (name, t) -> if t < 0.0 then Alcotest.failf "%s: negative time" name)
    r.Triq.Compiled.pass_times_s;
  let total = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 r.Triq.Compiled.pass_times_s in
  Alcotest.(check bool) "passes within total" true
    (total <= r.Triq.Compiled.compile_time_s +. 1e-6)

(* ---------- Error budget ---------- *)

let test_error_budget_multiplies_to_esp () =
  List.iter
    (fun machine ->
      let r = Pipeline.compile_level machine bv4 ~level:Pipeline.OneQOptCN in
      let budget = Triq.Compiled.budget_of r in
      let product =
        budget.Triq.Compiled.two_q *. budget.Triq.Compiled.one_q
        *. budget.Triq.Compiled.readout
      in
      Alcotest.(check (float 1e-9)) (machine.Device.Machine.name ^ " product = esp")
        r.Triq.Compiled.esp product)
    [ Machines.ibmq5; Machines.agave; Machines.umdti ]

let test_error_budget_two_q_dominates () =
  (* On superconducting machines, 2Q gates are the dominant loss for BV4
     (the paper's "2Q and RO operations dominate error rates"). *)
  let r = Pipeline.compile_level Machines.ibmq14 bv4 ~level:Pipeline.OneQOptCN in
  let b = Triq.Compiled.budget_of r in
  Alcotest.(check bool) "2q loss largest" true
    (b.Triq.Compiled.two_q < b.Triq.Compiled.one_q);
  Alcotest.(check bool) "2q below readout" true
    (b.Triq.Compiled.two_q <= b.Triq.Compiled.readout +. 1e-9)

(* ---------- qcheck properties ---------- *)

let random_calibration_gen =
  QCheck.Gen.(
    let n = 6 in
    let topo = Topology.ring n in
    map
      (fun errs ->
        let edges = Topology.edges topo in
        let two_q = List.map2 (fun e err -> (e, err)) edges errs in
        ( topo,
          Calibration.explicit ~day:0 ~one_q:(Array.make n 0.001) ~two_q
            ~readout:(Array.make n 0.02) ))
      (list_repeat (List.length (Topology.edges (Topology.ring n)))
         (float_range 0.01 0.3)))

let prop_reliability_score_bounds =
  QCheck.Test.make ~count:100 ~name:"reliability scores lie in (0, 1]"
    (QCheck.make random_calibration_gen) (fun (topo, cal) ->
      let r = Triq.Reliability.of_calibration ~noise_aware:true topo cal in
      let n = Triq.Reliability.n_qubits r in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then begin
            let s = Triq.Reliability.score r a b in
            if s <= 0.0 || s > 1.0 then ok := false
          end
        done
      done;
      !ok)

let prop_reliability_direct_at_least_routed =
  QCheck.Test.make ~count:100
    ~name:"coupled pairs score at least their direct edge"
    (QCheck.make random_calibration_gen) (fun (topo, cal) ->
      let r = Triq.Reliability.of_calibration ~noise_aware:true topo cal in
      List.for_all
        (fun (a, b) ->
          Triq.Reliability.score r a b >= Triq.Reliability.edge_reliability r a b -. 1e-12)
        (Topology.edges topo))

let prop_reliability_swap_path_valid =
  QCheck.Test.make ~count:100 ~name:"swap paths walk couplings"
    (QCheck.make random_calibration_gen) (fun (topo, cal) ->
      let r = Triq.Reliability.of_calibration ~noise_aware:true topo cal in
      let n = Triq.Reliability.n_qubits r in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then begin
            let path = Triq.Reliability.swap_path r a b in
            let rec edges_ok = function
              | u :: (v :: _ as rest) ->
                Topology.coupled topo u v && edges_ok rest
              | [ _ ] | [] -> true
            in
            if not (edges_ok path) then ok := false;
            (* The path ends at a neighbour of the target (or at the
               control when already coupled). *)
            let last = List.nth path (List.length path - 1) in
            if not (Topology.coupled topo last b) then ok := false
          end
        done
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reliability_score_bounds;
      prop_reliability_direct_at_least_routed;
      prop_reliability_swap_path_valid;
    ]

let () =
  Alcotest.run "triq"
    [
      ( "reliability",
        [
          Alcotest.test_case "fig6 direct edges" `Quick test_fig6_direct_edges;
          Alcotest.test_case "fig6 swap entries" `Quick test_fig6_swap_entries;
          Alcotest.test_case "fig6 swap path" `Quick test_fig6_swap_path;
          Alcotest.test_case "noise-unaware = hops" `Quick
            test_reliability_noise_unaware_is_hops;
          Alcotest.test_case "readout" `Quick test_reliability_readout;
          Alcotest.test_case "fully connected" `Quick test_reliability_fully_connected;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "interactions" `Quick test_mapper_interactions;
          Alcotest.test_case "trivial" `Quick test_mapper_trivial;
          Alcotest.test_case "prefers good edge" `Quick test_mapper_prefers_good_edge;
          Alcotest.test_case "avoids bad readout" `Quick test_mapper_avoids_bad_readout;
          Alcotest.test_case "objective consistent" `Quick
            test_mapper_objective_matches_evaluate;
          Alcotest.test_case "budget truncation" `Quick test_mapper_budget_truncation;
        ] );
      ( "router",
        [
          Alcotest.test_case "adjacent passthrough" `Quick test_router_adjacent_passthrough;
          Alcotest.test_case "inserts swaps" `Quick test_router_inserts_swaps;
          Alcotest.test_case "updates mapping" `Quick test_router_updates_mapping;
          Alcotest.test_case "semantics preserved" `Quick test_router_semantics_preserved;
          Alcotest.test_case "rejects bad placement" `Quick test_router_rejects_bad_placement;
        ] );
      ( "direction",
        [
          Alcotest.test_case "fix" `Quick test_direction_fix;
          Alcotest.test_case "undirected noop" `Quick test_direction_undirected_noop;
        ] );
      ( "translate",
        [
          Alcotest.test_case "ibm cnot" `Quick test_translate_cnot_ibm;
          Alcotest.test_case "rigetti cnot" `Quick test_translate_cnot_rigetti;
          Alcotest.test_case "umd cnot" `Quick test_translate_cnot_umd;
          Alcotest.test_case "swap expansion" `Quick test_translate_expand_swaps;
          Alcotest.test_case "rotation equivalence" `Quick
            test_translate_emit_rotation_equivalence;
          Alcotest.test_case "rotation visibility" `Quick
            test_translate_emit_rotation_visible;
          Alcotest.test_case "identity empty" `Quick test_translate_emit_identity_empty;
          Alcotest.test_case "pulse budget" `Quick test_translate_pulse_budget;
        ] );
      ( "oneq_opt",
        [
          Alcotest.test_case "cancellation" `Quick test_oneq_merge_cancels;
          Alcotest.test_case "merge to virtual z" `Quick test_oneq_merge_to_z;
          Alcotest.test_case "equivalence" `Quick test_oneq_optimize_equivalence;
          Alcotest.test_case "never worse" `Quick test_oneq_optimize_never_worse;
          Alcotest.test_case "z before measure" `Quick test_oneq_z_before_measure_dropped;
          Alcotest.test_case "flush at 2q" `Quick test_oneq_flush_before_two_q;
          Alcotest.test_case "naive per gate" `Quick test_oneq_naive_per_gate;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "visible output" `Quick test_pipeline_all_levels_visible;
          Alcotest.test_case "2q on coupled pairs" `Quick
            test_pipeline_two_q_on_coupled_pairs;
          Alcotest.test_case "cnot direction" `Quick test_pipeline_cnot_direction_respected;
          Alcotest.test_case "umd no swaps" `Quick test_pipeline_umd_needs_no_swaps;
          Alcotest.test_case "1q opt reduces pulses" `Quick
            test_pipeline_opt_levels_reduce_pulses;
          Alcotest.test_case "comm opt reduces 2q" `Quick
            test_pipeline_comm_opt_reduces_two_q;
          Alcotest.test_case "esp range" `Quick test_pipeline_esp_in_range;
          Alcotest.test_case "readout map" `Quick test_pipeline_readout_map;
          Alcotest.test_case "oversize rejected" `Quick test_pipeline_rejects_oversize;
          Alcotest.test_case "level names" `Quick test_pipeline_level_names;
          Alcotest.test_case "semantics smoke" `Quick test_pipeline_semantics_small;
          Alcotest.test_case "pass timings" `Quick test_pipeline_pass_timings;
        ] );
      ( "error budget",
        [
          Alcotest.test_case "multiplies to esp" `Quick test_error_budget_multiplies_to_esp;
          Alcotest.test_case "2q dominates" `Quick test_error_budget_two_q_dominates;
        ] );
      ("properties", qcheck_cases);
    ]
