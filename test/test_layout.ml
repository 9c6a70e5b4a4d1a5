(* Layout-engine tests: golden bit-identity of the compiled artifact
   against the Pipeline.compile_level digests in layout_golden.ml (also
   for a structurally equal copy of each machine), private placements,
   B&B/SMT objective agreement, B&B against enumeration (tied scores,
   planted twins), the exact search of every benchmark problem, and the
   structured-report contract. *)

module Machine = Device.Machine
module Machines = Device.Machines
module Programs = Bench_kit.Programs
module Circuit = Ir.Circuit
module G = Ir.Gate
module Report = Layout.Report

let reliability_for machine =
  Triq.Reliability.of_calibration ~noise_aware:true machine.Machine.topology
    (Machine.calibration machine ~day:0)

(* ---------- Golden bit-identity ---------- *)

(* Same digest as test/gen_golden: every output-relevant field of the
   compiled artifact, but not timing or search-effort metadata. *)
let digest (r : Triq.Compiled.t) =
  let payload =
    ( r.Triq.Compiled.hardware.Ir.Circuit.gates,
      r.Triq.Compiled.hardware.Ir.Circuit.n_qubits,
      r.Triq.Compiled.initial_placement,
      r.Triq.Compiled.final_placement,
      r.Triq.Compiled.readout_map,
      r.Triq.Compiled.swap_count,
      r.Triq.Compiled.two_q_count,
      r.Triq.Compiled.pulse_count,
      r.Triq.Compiled.flipped_cnots,
      r.Triq.Compiled.esp )
  in
  Digest.to_hex (Digest.string (Marshal.to_string payload []))

let machine_by_name name = List.find (fun m -> m.Machine.name = name) Machines.all
let program_by_name name = List.find (fun p -> p.Programs.name = name) Programs.all

let level_of_string_exn s =
  match Triq.Pass.level_of_string s with
  | Some l -> l
  | None -> Alcotest.failf "unknown level %S" s

(* The golden file's compiler column, as test/gen_golden builds it: a
   TriQ level with the default router, the top level with the lookahead
   router, or a baseline. *)
let compile_row m c = function
  | "TriQ-1QOptCN+lookahead" ->
    Triq.Pipeline.compile_level
      ~config:(Triq.Pass.Config.make ~router:Triq.Pass.Config.Lookahead ())
      m c ~level:Triq.Pass.OneQOptCN
  | "Qiskit" -> Baselines.Qiskit_like.compile ~seed:1 m c
  | "Quil" -> Baselines.Quil_like.compile m c
  | "Zulehner" -> Baselines.Zulehner_like.compile m c
  | level -> Triq.Pipeline.compile_level m c ~level:(level_of_string_exn level)

let test_golden_bit_identity () =
  (* Every bundled benchmark x machine x compiler must compile to exactly
     the artifact pinned in layout_golden.ml (the TriQ-level digests
     predate the layout engine; the lookahead and baseline digests predate
     the shared routing walker). Each entry compiles twice, and both
     compiles must give the pinned artifact bit-for-bit: a compile keeps
     no state from one call to the next. *)
  Alcotest.(check bool) "fixture is non-trivial" true
    (List.length Layout_golden.entries > 100);
  List.iter
    (fun (machine, program, level, expected) ->
      let m = machine_by_name machine in
      let p = program_by_name program in
      List.iter
        (fun round ->
          let got = digest (compile_row m p.Programs.circuit level) in
          if got <> expected then
            Alcotest.failf "%s: %s/%s/%s: digest %s, expected %s" round machine
              program level got expected)
        [ "first"; "repeat" ])
    Layout_golden.entries

let test_golden_machine_copy () =
  (* A compile reads the machine's fields, not its identity: a machine
     rebuilt with Machine.create from a built-in one's fields compiles
     every noise-aware golden entry to the pinned artifact. *)
  let copies =
    List.map
      (fun (m : Machine.t) ->
        ( m.Machine.name,
          Machine.create ~name:m.Machine.name ~basis:m.Machine.basis
            ~topology:m.Machine.topology ~profile:m.Machine.profile ~seed:m.Machine.seed ))
      Machines.all
  in
  let entries =
    List.filter (fun (_, _, level, _) -> level = "TriQ-1QOptCN") Layout_golden.entries
  in
  Alcotest.(check bool) "every machine covered" true
    (List.for_all
       (fun (name, _) -> List.exists (fun (m, _, _, _) -> m = name) entries)
       copies);
  List.iter
    (fun (machine, program, level, expected) ->
      let copy = List.assoc machine copies in
      let got = digest (compile_row copy (program_by_name program).Programs.circuit level) in
      if got <> expected then
        Alcotest.failf "copy of %s: %s/%s: digest %s, expected %s" machine program level
          got expected)
    entries

(* ---------- Private placements ---------- *)

let cnot_circuit n pairs measured =
  Circuit.create n
    (List.map (fun (a, b) -> G.Two (G.Cnot, a, b)) pairs
    @ List.map (fun q -> G.Measure q) measured)

let test_private_placements () =
  (* A caller that overwrites its report's placement must not change
     what later solves of the same problem, on the same reliability
     matrix, get. *)
  let reliability = reliability_for Machines.ibmq14 in
  let c = cnot_circuit 4 [ (0, 1); (1, 2); (2, 3); (2, 3) ] [ 0; 3 ] in
  let solve () = Triq.Placement.solve ~reliability ~machine_name:"IBMQ14" c in
  let r = solve () in
  let original = Array.copy r.Report.placement in
  Array.fill r.Report.placement 0 (Array.length r.Report.placement) (-1);
  List.iter
    (fun round ->
      let r' = solve () in
      Alcotest.(check (array int)) (round ^ " placement") original r'.Report.placement;
      Array.fill r'.Report.placement 0 (Array.length r'.Report.placement) (-1))
    [ "second solve"; "third solve" ]

(* ---------- Strategies ---------- *)

let test_strategies_agree_on_objective () =
  List.iter
    (fun (machine, (p : Programs.t)) ->
      let reliability = reliability_for machine in
      let flat = Ir.Decompose.flatten p.Programs.circuit in
      let pr = Triq.Placement.problem reliability flat in
      let bb = Layout.Bb.solve pr in
      let smt = Layout.Smt_search.solve pr in
      if Float.abs (bb.Report.objective -. smt.Report.objective) > 1e-9 then
        Alcotest.failf "%s/%s: bb %.6f vs smt %.6f" machine.Machine.name
          p.Programs.name bb.Report.objective smt.Report.objective)
    [
      (Machines.ibmq5, Programs.bv 4);
      (Machines.agave, Programs.toffoli);
      (Machines.ibmq14, Programs.hidden_shift 4);
    ]

(* Tie-bound soundness: on random small Max_min problems whose scores
   come from a handful of values, so ties on the minimum are the rule,
   B&B must reach the same objective and log-product as enumerating
   every injective placement under the same incumbent rule. *)
type tie_case = {
  n_program : int;
  n_hardware : int;
  pairs : ((int * int) * int) list;
  measured : int list;
  score : float array;
  readout : float array;
}

let tie_case_gen =
  let open QCheck.Gen in
  let value = oneofl [ 0.5; 0.8; 0.9; 0.95 ] in
  int_range 2 5 >>= fun n_program ->
  int_range n_program 7 >>= fun n_hardware ->
  let program_pairs =
    List.concat_map
      (fun a -> List.init (n_program - a - 1) (fun i -> (a, a + 1 + i)))
      (List.init n_program Fun.id)
  in
  flatten_l
    (List.map
       (fun (a, b) ->
         map2
           (fun kind count ->
             match kind with 0 -> [] | 1 -> [ ((a, b), count) ] | _ -> [ ((b, a), count) ])
           (int_bound 2) (int_range 1 3))
       program_pairs)
  >>= fun pairs ->
  list_repeat n_program bool >>= fun measured ->
  array_repeat (n_hardware * n_hardware) value >>= fun score ->
  array_repeat n_hardware value >|= fun readout ->
  {
    n_program;
    n_hardware;
    pairs = List.concat pairs;
    measured = List.concat (List.mapi (fun q m -> if m then [ q ] else []) measured);
    score;
    readout;
  }

let problem_of_tie_case c =
  Layout.Problem.make ~n_program:c.n_program ~n_hardware:c.n_hardware ~pairs:c.pairs
    ~measured:c.measured
    ~score:(fun h h' -> c.score.((h * c.n_hardware) + h'))
    ~readout:(fun h -> c.readout.(h))
    ()

(* Best (min, log-product) over every injective placement, recorded with
   B&B's rule for the problem's objective, starting from the same trivial
   incumbent. *)
let brute_force (pr : Layout.Problem.t) =
  let best = ref (Layout.Problem.evaluate pr (Layout.Problem.trivial pr)) in
  let placement = Array.make pr.Layout.Problem.n_program (-1) in
  let used = Array.make pr.Layout.Problem.n_hardware false in
  let rec go p =
    if p = pr.Layout.Problem.n_program then begin
      let m, lp = Layout.Problem.evaluate pr placement in
      let best_min, best_log = !best in
      let better =
        match pr.Layout.Problem.objective with
        | Layout.Problem.Max_min ->
          m > best_min +. 1e-12 || (m > best_min -. 1e-12 && lp > best_log)
        | Layout.Problem.Product ->
          lp > best_log || (lp = best_log && m > best_min +. 1e-12)
      in
      if better then best := (m, lp)
    end
    else
      for h = 0 to pr.Layout.Problem.n_hardware - 1 do
        if not used.(h) then begin
          used.(h) <- true;
          placement.(p) <- h;
          go (p + 1);
          used.(h) <- false
        end
      done
  in
  go 0;
  !best

let prop_tie_bound_exact =
  QCheck.Test.make ~count:300 ~name:"b&b matches enumeration on tied scores"
    (QCheck.make tie_case_gen) (fun c ->
      let pr = problem_of_tie_case c in
      let r = Layout.Bb.solve pr in
      let best_min, best_log = brute_force pr in
      r.Report.proven_optimal && r.Report.objective = best_min
      && Float.abs (r.Report.log_product -. best_log) <= 1e-9)

(* Twin soundness: a hub with 1..k identical leaves (same orientation,
   count and measured flag, so Problem.order places them as a run of
   twins) plus random extra pairs among the other qubits, under both
   objectives. B&B searches each set of leaf qubits in one order only, and
   must still reach the enumerated objective, and report a placement that
   evaluates to it. *)
let twin_case_gen =
  let open QCheck.Gen in
  let value = oneofl [ 0.5; 0.8; 0.9; 0.95 ] in
  int_range 2 6 >>= fun n_program ->
  int_range n_program 7 >>= fun n_hardware ->
  int_range 1 (n_program - 1) >>= fun leaves ->
  bool >>= fun hub_first ->
  int_range 1 3 >>= fun leaf_count ->
  bool >>= fun leaf_measured ->
  let others = List.init (n_program - leaves - 1) (fun i -> leaves + 1 + i) in
  let extra_pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) others)
      (0 :: others)
  in
  flatten_l
    (List.map
       (fun (a, b) ->
         map2
           (fun kind count ->
             match kind with 0 -> [] | 1 -> [ ((a, b), count) ] | _ -> [ ((b, a), count) ])
           (int_bound 2) (int_range 1 3))
       extra_pairs)
  >>= fun extra ->
  list_repeat (List.length others + 1) bool >>= fun other_measured ->
  array_repeat (n_hardware * n_hardware) value >>= fun score ->
  array_repeat n_hardware value >|= fun readout ->
  let leaf_pairs =
    List.init leaves (fun i ->
        let leaf = i + 1 in
        ((if hub_first then (0, leaf) else (leaf, 0)), leaf_count))
  in
  {
    n_program;
    n_hardware;
    pairs = leaf_pairs @ List.concat extra;
    measured =
      (if leaf_measured then List.init leaves (fun i -> i + 1) else [])
      @ List.concat
          (List.map2 (fun q m -> if m then [ q ] else []) (0 :: others) other_measured);
    score;
    readout;
  }

let prop_twins_exact =
  QCheck.Test.make ~count:300 ~name:"b&b matches enumeration with planted twins"
    (QCheck.make twin_case_gen) (fun c ->
      List.for_all
        (fun objective ->
          let pr = { (problem_of_tie_case c) with Layout.Problem.objective } in
          let r = Layout.Bb.solve pr in
          let best_min, best_log = brute_force pr in
          let eval_min, eval_log = Layout.Problem.evaluate pr r.Report.placement in
          r.Report.proven_optimal && r.Report.objective = best_min
          && Float.abs (r.Report.log_product -. best_log) <= 1e-9
          && eval_min = r.Report.objective
          && Float.abs (eval_log -. r.Report.log_product) <= 1e-9)
        [ Layout.Problem.Max_min; Layout.Problem.Product ])

let test_search_pins () =
  (* Every Layout.Bb.solve problem of a bundled benchmark on a fitting
     machine, in both noise modes and under both objectives, reaches
     exactly the pinned search: node count, proven optimality, objective
     and log-product bit for bit, and placement (mapper_pins.ml, made by
     test/gen_golden/gen_pins). Speeding up the search must not change
     what it visits. BV8's seven data qubits are twins: without twin
     pruning its Max_min solves take up to 90,147 nodes, and six of its
     eight Product solves stop at the 200,000-node budget. *)
  let objective_of = function
    | "max-min" -> Layout.Problem.Max_min
    | "product" -> Layout.Problem.Product
    | s -> Alcotest.failf "unknown objective %S" s
  in
  Alcotest.(check int) "every problem pinned" 300 (List.length Mapper_pins.search);
  List.iter
    (fun (machine, program, noise_aware, objective, nodes, proven, obj, log_product, placement) ->
      let m = machine_by_name machine in
      let reliability =
        Triq.Reliability.of_calibration ~noise_aware m.Machine.topology
          (Machine.calibration m ~day:0)
      in
      let flat = Ir.Decompose.flatten (program_by_name program).Programs.circuit in
      let r =
        Layout.Bb.solve
          (Triq.Placement.problem ~objective:(objective_of objective) reliability flat)
      in
      let ((got_nodes, got_proven, got_obj, got_log, _) as got) =
        ( r.Report.work.Report.search_nodes,
          r.Report.proven_optimal,
          Printf.sprintf "%h" r.Report.objective,
          Printf.sprintf "%h" r.Report.log_product,
          r.Report.placement )
      in
      if got <> (nodes, proven, obj, log_product, placement) then
        Alcotest.failf "%s %s noise_aware=%b %s: %d nodes, proven %b, %s, %s" machine
          program noise_aware objective got_nodes got_proven got_obj got_log)
    Mapper_pins.search

(* ---------- Reports ---------- *)

let test_pipeline_layout_report () =
  let machine = Machines.ibmq5 in
  let c = (Programs.bv 4).Programs.circuit in
  let r = Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.OneQOptCN in
  (match r.Triq.Compiled.layout with
  | None -> Alcotest.fail "solver levels must report a layout"
  | Some l ->
    Alcotest.(check string) "default strategy" "bb" l.Report.strategy;
    Alcotest.(check bool) "did some work" true (Report.work_total l.Report.work > 0);
    Alcotest.(check bool) "proved optimality" true l.Report.proven_optimal;
    Alcotest.(check bool) "placement recorded" true
      (l.Report.placement = r.Triq.Compiled.initial_placement));
  let rn = Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.N in
  Alcotest.(check bool) "identity mapping has no layout" true
    (rn.Triq.Compiled.layout = None)

let test_pipeline_strategy_dispatch () =
  let machine = Machines.ibmq5 in
  let c = (Programs.bv 4).Programs.circuit in
  let strategy_of mapper =
    let config = Triq.Pass.Config.make ~mapper () in
    let r =
      Triq.Pipeline.compile_level ~config machine c ~level:Triq.Pipeline.OneQOptCN
    in
    match r.Triq.Compiled.layout with
    | None -> Alcotest.fail "expected a layout report"
    | Some l -> l.Report.strategy
  in
  Alcotest.(check string) "bb" "bb" (strategy_of Layout.Config.Bb);
  Alcotest.(check string) "smt" "smt" (strategy_of Layout.Config.Smt)

let () =
  Alcotest.run "layout"
    [
      ( "golden",
        [
          Alcotest.test_case "bit identity (first + repeat)" `Quick test_golden_bit_identity;
          Alcotest.test_case "structural machine copy" `Quick test_golden_machine_copy;
        ] );
      ( "placement",
        [ Alcotest.test_case "returns private placements" `Quick test_private_placements ] );
      ( "strategies",
        [
          Alcotest.test_case "objective agreement" `Quick test_strategies_agree_on_objective;
          QCheck_alcotest.to_alcotest prop_tie_bound_exact;
          QCheck_alcotest.to_alcotest prop_twins_exact;
          Alcotest.test_case "search pins" `Quick test_search_pins;
        ] );
      ( "reports",
        [
          Alcotest.test_case "pipeline report" `Quick test_pipeline_layout_report;
          Alcotest.test_case "strategy dispatch" `Quick test_pipeline_strategy_dispatch;
        ] );
    ]
