(* Tests for the extension features: ASCII circuit drawing, peephole
   cancellation, the product mapping objective, the distance-dependent
   large ion trap, and the extension experiments. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Mat = Ir.Matrices
module M = Mathkit.Matrix
module Rng = Mathkit.Rng
module Machines = Device.Machines
module Machine = Device.Machine
module Calibration = Device.Calibration
module Report = Layout.Report
module Peephole = Triq.Peephole
module Pipeline = Triq.Pipeline
module Experiments = Bench_kit.Experiments

let circuit n gates = Circuit.create n gates

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* ---------- Draw ---------- *)

let test_draw_wires () =
  let text = Ir.Draw.render (circuit 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ]) in
  Alcotest.(check int) "two lines" 2
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)));
  Alcotest.(check bool) "labels" true (contains text "q0" && contains text "q1");
  Alcotest.(check bool) "hadamard box" true (contains text "[H]");
  Alcotest.(check bool) "control dot" true (contains text "*");
  Alcotest.(check bool) "target" true (contains text "X")

let test_draw_connector () =
  (* CNOT between non-adjacent wires draws a vertical bar on the wire in
     between. *)
  let text = Ir.Draw.render (circuit 3 [ G.Two (G.Cnot, 0, 2) ]) in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "bar on middle wire" true (contains (List.nth lines 1) "|")

let test_draw_measure_and_labels () =
  let text =
    Ir.Draw.render ~wire_labels:[ "cin"; "a" ] (circuit 2 [ G.Measure 0; G.Measure 1 ])
  in
  Alcotest.(check bool) "labels used" true (contains text "cin" && contains text "a");
  Alcotest.(check bool) "measure marks" true (contains text "M");
  Alcotest.(check bool) "wrong label count" true
    (try ignore (Ir.Draw.render ~wire_labels:[ "x" ] (circuit 2 [])); false
     with Invalid_argument _ -> true)

let test_draw_layering () =
  (* Parallel gates share one column: total width of a 4-H layer equals
     width of a single H column. *)
  let wide = Ir.Draw.render (circuit 4 (List.init 4 (fun q -> G.One (G.H, q)))) in
  let serial = Ir.Draw.render (circuit 1 (List.init 4 (fun _ -> G.One (G.H, 0)))) in
  let line s = List.hd (String.split_on_char '\n' s) in
  Alcotest.(check bool) "parallel narrower than serial" true
    (String.length (line wide) < String.length (line serial))

(* ---------- Peephole ---------- *)

let test_peephole_cancels_adjacent () =
  let c = circuit 2 [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 0, 1) ] in
  Alcotest.(check int) "both gone" 0 (Circuit.gate_count (Peephole.cancel_two_q c))

let test_peephole_keeps_oriented_pairs () =
  (* CNOT a,b then CNOT b,a do NOT cancel. *)
  let c = circuit 2 [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 0) ] in
  Alcotest.(check int) "kept" 2 (Circuit.gate_count (Peephole.cancel_two_q c))

let test_peephole_cz_symmetric () =
  let c = circuit 2 [ G.Two (G.Cz, 0, 1); G.Two (G.Cz, 1, 0) ] in
  Alcotest.(check int) "cz cancels either orientation" 0
    (Circuit.gate_count (Peephole.cancel_two_q c))

let test_peephole_blocked_by_one_q () =
  let c =
    circuit 2 [ G.Two (G.Cnot, 0, 1); G.One (G.H, 1); G.Two (G.Cnot, 0, 1) ]
  in
  Alcotest.(check int) "blocked" 3 (Circuit.gate_count (Peephole.cancel_two_q c))

let test_peephole_commutes_past_disjoint () =
  (* A disjoint gate between the pair must not block cancellation. *)
  let c =
    circuit 4 [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 2, 3); G.Two (G.Cnot, 0, 1) ]
  in
  Alcotest.(check int) "cancelled around disjoint gate" 1
    (Circuit.two_q_count (Peephole.cancel_two_q c))

let test_peephole_preserves_unitary () =
  let rng = Rng.create 77 in
  for _ = 1 to 40 do
    let n = 3 in
    let len = 2 + Rng.int rng 12 in
    let gates =
      List.init len (fun _ ->
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          match Rng.int rng 4 with
          | 0 -> G.Two (G.Cnot, a, b)
          | 1 -> G.Two (G.Cz, a, b)
          | 2 -> G.Two (G.Swap, a, b)
          | _ -> G.One (G.T, a))
    in
    let c = circuit n gates in
    let opt = Peephole.cancel_two_q c in
    if
      not
        (M.proportional ~eps:1e-8 (Mat.circuit_unitary c) (Mat.circuit_unitary opt))
    then Alcotest.fail "peephole changed semantics"
  done

let test_peephole_pipeline_integration () =
  (* With peephole on, the pipeline's output must stay semantically equal
     and never use more 2Q gates. *)
  let p = Bench_kit.Programs.peres in
  let without =
    Pipeline.compile_level Machines.ibmq14 p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let with_ =
    Pipeline.compile_level ~config:(Triq.Pass.Config.make ~peephole:true ())
      Machines.ibmq14 p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  Alcotest.(check bool) "not worse" true
    (with_.Triq.Compiled.two_q_count <= without.Triq.Compiled.two_q_count);
  let outcome =
    Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) with_
      p.Bench_kit.Programs.spec
  in
  Alcotest.(check bool) "still correct" true outcome.Sim.Runner.dominant_correct

(* ---------- Product objective ---------- *)

let fig6_reliability () =
  Triq.Reliability.of_calibration ~noise_aware:true
    Machines.example_8q.Machine.topology Machines.example_8q_calibration

let solve ~objective r c = Layout.Bb.solve (Triq.Placement.problem ~objective r c)

let test_product_objective_valid () =
  let r = fig6_reliability () in
  let c =
    circuit 3 [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.Measure 0 ]
  in
  let result = solve ~objective:Layout.Problem.Product r c in
  let placed = List.sort_uniq compare (Array.to_list result.Report.placement) in
  Alcotest.(check int) "injective" 3 (List.length placed);
  Alcotest.(check bool) "optimal" true result.Report.proven_optimal

let test_product_maximizes_product () =
  (* The product solution must have log-product >= the max-min solution's
     (it optimizes exactly that). *)
  let r = fig6_reliability () in
  let c =
    circuit 4
      [ G.Two (G.Cnot, 0, 1); G.Two (G.Cnot, 1, 2); G.Two (G.Cnot, 2, 3);
        G.Two (G.Cnot, 3, 0) ]
  in
  let mm = solve ~objective:Layout.Problem.Max_min r c in
  let pr = solve ~objective:Layout.Problem.Product r c in
  let evaluate (res : Report.t) =
    Layout.Problem.evaluate (Triq.Placement.problem r c) res.Report.placement
  in
  let min_mm, log_mm = evaluate mm in
  let min_pr, log_pr = evaluate pr in
  Alcotest.(check bool) "product wins its own game" true (log_pr >= log_mm -. 1e-9);
  (* ... and max-min wins its own game. *)
  Alcotest.(check bool) "max-min wins its own game" true (min_mm >= min_pr -. 1e-9)

let test_max_min_prunes_better () =
  (* The paper's scalability argument: on the larger device, max-min
     explores no more nodes than product for the same exact search. *)
  let machine = Machines.ibmq16 in
  let reliability =
    Triq.Reliability.compute ~noise_aware:true machine
      (Machine.calibration machine ~day:0)
  in
  let flat = Ir.Decompose.flatten (Bench_kit.Programs.bv 6).Bench_kit.Programs.circuit in
  let nodes objective =
    (solve ~objective reliability flat).Report.work.Report.search_nodes
  in
  let mm = nodes Layout.Problem.Max_min and pr = nodes Layout.Problem.Product in
  Alcotest.(check bool)
    (Printf.sprintf "maxmin %d <= product %d nodes" mm pr)
    true (mm <= pr)

(* ---------- Large ion trap ---------- *)

let test_ion_trap_chain_distance_errors () =
  let machine = Machines.ion_trap_chain 13 in
  Alcotest.(check int) "13 ions" 13 (Machine.n_qubits machine);
  Alcotest.(check bool) "fully connected" true
    (Device.Topology.is_fully_connected machine.Machine.topology);
  (* Averaged over days, far pairs must be worse than near pairs. *)
  let avg_err a b =
    Mathkit.Stats.mean
      (List.init 30 (fun day ->
           Calibration.two_q_err (Machine.calibration machine ~day) a b))
  in
  let near = avg_err 0 1 and far = avg_err 0 12 in
  Alcotest.(check bool)
    (Printf.sprintf "far %.3f > 2x near %.3f" far near)
    true
    (far > 2.0 *. near);
  Alcotest.(check bool) "validation" true
    (try ignore (Machines.ion_trap_chain 2); false with Invalid_argument _ -> true)

let test_ion_trap_noise_adaptivity_matters_more () =
  (* Section 6.3's projection: the CN-over-C gain on the 13-ion trap must
     exceed the gain on the 5-ion UMDTI for a 2Q-heavy program. *)
  let p = Bench_kit.Sequences.toffoli 4 in
  let gain machine =
    let s level =
      let compiled =
        Pipeline.compile_level machine p.Bench_kit.Programs.circuit ~level
      in
      (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:200 ()) compiled
         p.Bench_kit.Programs.spec).Sim.Runner.success_rate
    in
    s Pipeline.OneQOptCN /. s Pipeline.OneQOptC
  in
  let small = gain Machines.umdti in
  let large = gain (Machines.ion_trap_chain 13) in
  Alcotest.(check bool)
    (Printf.sprintf "large trap gain %.2f > small %.2f - 0.05" large small)
    true
    (large > small -. 0.05);
  Alcotest.(check bool) (Printf.sprintf "large gain %.2f material" large) true
    (large > 1.1)

(* ---------- Lookahead router ---------- *)

let test_lookahead_preserves_semantics () =
  List.iter
    (fun machine ->
      List.iter
        (fun (p : Bench_kit.Programs.t) ->
          if Machine.fits machine p.Bench_kit.Programs.circuit then begin
            let compiled =
              Pipeline.compile_level
                ~config:
                  (Triq.Pass.Config.make ~router:Triq.Pass.Config.Lookahead ())
                machine p.Bench_kit.Programs.circuit ~level:Pipeline.OneQOptCN
            in
            let result =
              Sim.Verify.check_spec p.Bench_kit.Programs.spec
                ~program:p.Bench_kit.Programs.circuit compiled
            in
            if not result.Sim.Verify.equivalent then
              Alcotest.failf "%s/%s: lookahead routing changed semantics"
                machine.Machine.name p.Bench_kit.Programs.name
          end)
        [ Bench_kit.Programs.bv 6; Bench_kit.Programs.adder; Bench_kit.Programs.qft 4 ])
    [ Machines.ibmq14; Machines.ibmq16; Machines.aspen1 ]

let test_lookahead_not_worse_on_2q () =
  (* Over the benchmark suite the lookahead router must not increase
     geomean 2Q counts. *)
  let machine = Machines.ibmq14 in
  let ratios =
    List.filter_map
      (fun (p : Bench_kit.Programs.t) ->
        if not (Machine.fits machine p.Bench_kit.Programs.circuit) then None
        else begin
          let count router =
            (Pipeline.compile_level ~config:(Triq.Pass.Config.make ~router ())
               machine p.Bench_kit.Programs.circuit ~level:Pipeline.OneQOptCN)
              .Triq.Compiled.two_q_count
          in
          Some
            ( float_of_int (count Triq.Pass.Config.Default),
              float_of_int (count Triq.Pass.Config.Lookahead) )
        end)
      Bench_kit.Programs.all
  in
  let geo = Mathkit.Stats.geomean_ratio ratios in
  Alcotest.(check bool) (Printf.sprintf "geomean 2q ratio %.3f >= 1" geo) true
    (geo >= 0.999)

(* ---------- Parametric iSWAP interface ---------- *)

let test_parametric_semantics () =
  List.iter
    (fun (p : Bench_kit.Programs.t) ->
      let compiled =
        Pipeline.compile_level Machines.aspen1_parametric p.Bench_kit.Programs.circuit
          ~level:Pipeline.OneQOptCN
      in
      Alcotest.(check bool) (p.Bench_kit.Programs.name ^ " visible") true
        (Device.Gateset.circuit_visible Device.Gateset.Rigetti_parametric_visible
           compiled.Triq.Compiled.hardware);
      let result =
        Sim.Verify.check_spec p.Bench_kit.Programs.spec
          ~program:p.Bench_kit.Programs.circuit compiled
      in
      if not result.Sim.Verify.equivalent then
        Alcotest.failf "%s: parametric compilation changed semantics"
          p.Bench_kit.Programs.name)
    [ Bench_kit.Programs.bv 6; Bench_kit.Programs.fredkin; Bench_kit.Programs.qft 4 ]

let test_parametric_fewer_two_q () =
  (* Swap-heavy programs must use at most as many 2Q interactions. *)
  let p = Bench_kit.Programs.bv 8 in
  let count machine =
    (Pipeline.compile_level machine p.Bench_kit.Programs.circuit ~level:Pipeline.OneQOptCN)
      .Triq.Compiled.two_q_count
  in
  let plain = count Machines.aspen1 and parametric = count Machines.aspen1_parametric in
  Alcotest.(check bool)
    (Printf.sprintf "parametric %d < plain %d" parametric plain)
    true (parametric < plain)

let test_parametric_quil_roundtrip () =
  let p = Bench_kit.Programs.bv 6 in
  let compiled =
    Pipeline.compile_level Machines.aspen1_parametric p.Bench_kit.Programs.circuit
      ~level:Pipeline.OneQOptCN
  in
  let text = Backend.Quil_emit.emit compiled in
  let contains needle =
    let h = String.length text and n = String.length needle in
    let rec scan i = i + n <= h && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "emits ISWAP" true (contains "ISWAP ");
  let parsed = Backend.Quil_parse.parse text in
  Alcotest.(check bool) "roundtrip gates" true
    (List.for_all2 G.equal compiled.Triq.Compiled.hardware.Circuit.gates
       parsed.Backend.Quil_parse.circuit.Circuit.gates)

let test_parametric_machine_io () =
  let m' =
    Device.Machine_io.of_string (Device.Machine_io.to_string Machines.aspen1_parametric)
  in
  Alcotest.(check bool) "interface preserved" true
    (m'.Machine.basis = Device.Gateset.Rigetti_parametric_visible)

(* ---------- Extension experiments ---------- *)

let test_ablation_mapper_shape () =
  let data = Experiments.ablation_mapper_data ~node_budget:50_000 () in
  Alcotest.(check int) "12 benchmarks" 12 (List.length data);
  List.iter
    (fun (bench, (mm : Report.t), (pr : Report.t), (smt : Report.t)) ->
      if mm.Report.objective +. 1e-9 < pr.Report.objective then
        Alcotest.failf "%s: max-min lost its own objective" bench;
      (* The SAT engine is exact: when B&B finished within budget the two
         must agree on the objective. *)
      if
        mm.Report.proven_optimal
        && Float.abs (mm.Report.objective -. smt.Report.objective) > 1e-9
      then
        Alcotest.failf "%s: smt %.4f disagrees with exact b&b %.4f" bench
          smt.Report.objective mm.Report.objective)
    data

let test_ablation_peephole_shape () =
  List.iter
    (fun (bench, without, with_) ->
      if with_ > without then Alcotest.failf "%s: peephole added gates" bench)
    (Experiments.ablation_peephole_data ())

let test_staleness_shape () =
  let data = Experiments.staleness_data ~trajectories:150 ~days:5 () in
  Alcotest.(check int) "five days" 5 (List.length data);
  (* On the compile day itself stale = fresh by construction. *)
  (match data with
  | (0, stale, fresh) :: _ ->
    Alcotest.(check (float 1e-9)) "day 0 identical" stale fresh
  | _ -> Alcotest.fail "day 0 missing");
  (* Recompilation must not lose on average. *)
  let stale = Mathkit.Stats.mean (List.map (fun (_, s, _) -> s) data) in
  let fresh = Mathkit.Stats.mean (List.map (fun (_, _, f) -> f) data) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh %.3f >= stale %.3f - 0.03" fresh stale)
    true
    (fresh >= stale -. 0.03)

let test_parametric_experiment_shape () =
  let data = Experiments.parametric_data ~trajectories:100 () in
  Alcotest.(check int) "12 benchmarks" 12 (List.length data);
  List.iter
    (fun (_, bench, c2, _, p2, _) ->
      if p2 > c2 then Alcotest.failf "%s: parametric used more 2Q" bench)
    data

let test_noise_model_shape () =
  let data = Experiments.noise_model_data ~trajectories:150 () in
  List.iter
    (fun (bench, folded, explicit) ->
      if Float.abs (folded -. explicit) > 0.12 then
        Alcotest.failf "%s: models diverge (%.2f vs %.2f)" bench folded explicit)
    data

let test_variability_shape () =
  let data = Experiments.variability_data ~trajectories:100 ~days:4 () in
  Alcotest.(check int) "three machines" 3 (List.length data);
  List.iter
    (fun (name, series) ->
      Alcotest.(check int) (name ^ " days") 4 (List.length series);
      List.iter
        (fun s -> if s <= 0.0 || s > 1.0 then Alcotest.failf "%s: rate %f" name s)
        series)
    data

let test_heavyhex_shape () =
  let rows = Experiments.heavyhex_data ~trajectories:100 () in
  Alcotest.(check bool) "nonempty" true (rows <> []);
  List.iter
    (fun (r : float Experiments.row) ->
      Alcotest.(check int) "two series" 2 (List.length r.Experiments.values))
    rows

let test_ghz_fidelity_shape () =
  let data = Experiments.ghz_data ~trajectories:150 () in
  Alcotest.(check int) "seven machines" 7 (List.length data);
  List.iter
    (fun (name, f) ->
      if f < 0.0 || f > 1.0 +. 1e-6 then Alcotest.failf "%s: fidelity %f" name f)
    data;
  (* The ion trap certifies entanglement comfortably; Agave does not. *)
  Alcotest.(check bool) "umdti > 0.9" true (List.assoc "UMDTI" data > 0.9);
  Alcotest.(check bool) "umdti best" true
    (List.for_all (fun (_, f) -> List.assoc "UMDTI" data >= f -. 1e-9) data)

let test_tannu_shape () =
  let data = Experiments.tannu_data ~trajectories:100 () in
  Alcotest.(check int) "six days" 6 (List.length data);
  let triq = List.map (fun (_, t, _) -> t) data in
  Alcotest.(check bool) "stable and high" true
    (Mathkit.Stats.minimum triq > 0.5)

let () =
  Alcotest.run "extensions"
    [
      ( "draw",
        [
          Alcotest.test_case "wires" `Quick test_draw_wires;
          Alcotest.test_case "connector" `Quick test_draw_connector;
          Alcotest.test_case "measure and labels" `Quick test_draw_measure_and_labels;
          Alcotest.test_case "layering" `Quick test_draw_layering;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "cancels adjacent" `Quick test_peephole_cancels_adjacent;
          Alcotest.test_case "orientation matters" `Quick test_peephole_keeps_oriented_pairs;
          Alcotest.test_case "cz symmetric" `Quick test_peephole_cz_symmetric;
          Alcotest.test_case "blocked by 1q" `Quick test_peephole_blocked_by_one_q;
          Alcotest.test_case "commutes past disjoint" `Quick
            test_peephole_commutes_past_disjoint;
          Alcotest.test_case "preserves unitary" `Quick test_peephole_preserves_unitary;
          Alcotest.test_case "pipeline integration" `Quick
            test_peephole_pipeline_integration;
        ] );
      ( "product objective",
        [
          Alcotest.test_case "valid placement" `Quick test_product_objective_valid;
          Alcotest.test_case "each wins its game" `Quick test_product_maximizes_product;
          Alcotest.test_case "max-min prunes better" `Quick test_max_min_prunes_better;
        ] );
      ( "ion trap",
        [
          Alcotest.test_case "distance errors" `Quick test_ion_trap_chain_distance_errors;
          Alcotest.test_case "adaptivity matters more" `Slow
            test_ion_trap_noise_adaptivity_matters_more;
        ] );
      ( "lookahead router",
        [
          Alcotest.test_case "preserves semantics" `Quick test_lookahead_preserves_semantics;
          Alcotest.test_case "not worse on 2q" `Quick test_lookahead_not_worse_on_2q;
        ] );
      ( "parametric iswap",
        [
          Alcotest.test_case "semantics" `Quick test_parametric_semantics;
          Alcotest.test_case "fewer 2q" `Quick test_parametric_fewer_two_q;
          Alcotest.test_case "quil roundtrip" `Quick test_parametric_quil_roundtrip;
          Alcotest.test_case "machine io" `Quick test_parametric_machine_io;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "ablation mapper" `Quick test_ablation_mapper_shape;
          Alcotest.test_case "ablation peephole" `Quick test_ablation_peephole_shape;
          Alcotest.test_case "staleness" `Slow test_staleness_shape;
          Alcotest.test_case "tannu six days" `Quick test_tannu_shape;
          Alcotest.test_case "parametric shape" `Slow test_parametric_experiment_shape;
          Alcotest.test_case "noise model shape" `Slow test_noise_model_shape;
          Alcotest.test_case "variability shape" `Quick test_variability_shape;
          Alcotest.test_case "heavy-hex shape" `Slow test_heavyhex_shape;
          Alcotest.test_case "ghz fidelity" `Slow test_ghz_fidelity_shape;
        ] );
    ]
