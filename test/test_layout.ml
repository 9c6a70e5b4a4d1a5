(* Layout-engine tests: golden bit-identity of the compiled artifact
   against the Pipeline.compile_level digests in layout_golden.ml,
   canonical-form behaviour, layout-cache semantics, B&B/SMT objective
   agreement, and the structured-report contract. *)

module Machine = Device.Machine
module Machines = Device.Machines
module Programs = Bench_kit.Programs
module Circuit = Ir.Circuit
module G = Ir.Gate
module Report = Layout.Report
module Canon = Layout.Canon

let reliability_for machine =
  Triq.Reliability.compute ~noise_aware:true machine (Machine.calibration machine ~day:0)

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

let status (r : Report.t) = Report.cache_status_name r.Report.cache

let test_golden_bit_identity () =
  (* Every bundled benchmark x machine x level must compile to exactly the
     artifact the pre-refactor pipeline produced (digests pinned in
     layout_golden.ml before the layout engine existed). Each entry
     compiles twice after clearing the caches: a cold solve, then the
     cache-hit path, which must reproduce the same placement bit-for-bit
     after canonical-permutation translation. *)
  Alcotest.(check bool) "fixture is non-trivial" true
    (List.length Layout_golden.entries > 100);
  List.iter
    (fun (machine, program, level, expected) ->
      let m = machine_by_name machine in
      let p = program_by_name program in
      Triq.Placement.cache_clear ();
      List.iter
        (fun (round, expected_status) ->
          let r =
            Triq.Pipeline.compile_level m p.Programs.circuit
              ~level:(level_of_string_exn level)
          in
          let got = digest r in
          if got <> expected then
            Alcotest.failf "%s: %s/%s/%s: digest %s, expected %s" round machine
              program level got expected;
          match r.Triq.Compiled.layout with
          | Some l when l.Report.cache <> expected_status ->
            Alcotest.failf "%s compile: layout cache %s" round (status l)
          | _ -> ())
        [ ("cold", Report.Miss); ("cached", Report.Hit) ])
    Layout_golden.entries

(* ---------- Canonical forms ---------- *)

let relabel_pairs perm pairs =
  List.map (fun ((a, b), c) -> ((perm.(a), perm.(b)), c)) pairs

let test_canon_isomorphic_relabel () =
  let pairs = [ ((0, 1), 2); ((1, 2), 1); ((2, 3), 3); ((0, 3), 1) ] in
  let measured = [ 0; 2 ] in
  List.iter
    (fun perm ->
      let a = Canon.of_interactions ~n:4 ~pairs ~measured in
      let b =
        Canon.of_interactions ~n:4
          ~pairs:(relabel_pairs perm pairs)
          ~measured:(List.map (fun q -> perm.(q)) measured)
      in
      Alcotest.(check bool) "same canonical form" true
        (Canon.equal_form a.Canon.form b.Canon.form);
      Alcotest.(check int) "same hash" a.Canon.hash b.Canon.hash)
    [ [| 3; 0; 2; 1 |]; [| 1; 2; 3; 0 |]; [| 2; 0; 3; 1 |] ]

let two_triangles =
  [ ((0, 1), 1); ((1, 2), 1); ((2, 0), 1); ((3, 4), 1); ((4, 5), 1); ((5, 3), 1) ]

let six_cycle =
  [ ((0, 1), 1); ((1, 2), 1); ((2, 3), 1); ((3, 4), 1); ((4, 5), 1); ((5, 0), 1) ]

let test_canon_near_miss () =
  (* Two directed triangles vs one directed 6-cycle: identical degree
     sequence (every qubit has out- and in-degree 1), but the graphs are
     not isomorphic, so the canonical forms must differ. *)
  let a = Canon.of_interactions ~n:6 ~pairs:two_triangles ~measured:[] in
  let b = Canon.of_interactions ~n:6 ~pairs:six_cycle ~measured:[] in
  Alcotest.(check bool) "distinct forms" false (Canon.equal_form a.Canon.form b.Canon.form)

let test_canon_measured_distinguishes () =
  (* Same edges, different measured set: distinct forms. *)
  let pairs = [ ((0, 1), 1); ((1, 2), 1) ] in
  let a = Canon.of_interactions ~n:3 ~pairs ~measured:[ 0 ] in
  let b = Canon.of_interactions ~n:3 ~pairs ~measured:[ 2 ] in
  Alcotest.(check bool) "distinct forms" false (Canon.equal_form a.Canon.form b.Canon.form)

(* ---------- The cache ---------- *)

let cnot_circuit n pairs measured =
  Circuit.create n
    (List.map (fun (a, b) -> G.Two (G.Cnot, a, b)) pairs
    @ List.map (fun q -> G.Measure q) measured)

let ibmq14_reliability = lazy (reliability_for Machines.ibmq14)

let solve ?(reliability = Lazy.force ibmq14_reliability) ?(machine_name = "IBMQ14")
    ?(day = 0) c =
  Triq.Placement.solve ~reliability ~machine_name ~day c

let test_cache_relabel_hit () =
  (* A relabeled circuit hits the entry of the original and gets the
     original's placement translated into its own labels; the same form
     under a different scope (day, machine) or a different physical token
     must miss: structural equality of tokens is not enough. *)
  Triq.Placement.cache_clear ();
  let c = cnot_circuit 4 [ (0, 1); (0, 1); (1, 2); (2, 3); (2, 3); (2, 3) ] [ 3 ] in
  (* The same circuit under the relabeling 0->2, 1->3, 2->1, 3->0. *)
  let c' = cnot_circuit 4 [ (2, 3); (2, 3); (3, 1); (1, 0); (1, 0); (1, 0) ] [ 0 ] in
  let r = solve c in
  let r' = solve c' in
  Alcotest.(check (pair string string)) "miss, then relabeled hit" ("miss", "hit")
    (status r, status r');
  Alcotest.(check bool) "stored strategy and optimality" true
    (r'.Report.strategy = "bb" && r'.Report.proven_optimal);
  Alcotest.(check (float 0.)) "objective preserved by translation" r.Report.objective
    r'.Report.objective;
  Alcotest.(check (float 1e-12)) "log-product preserved" r.Report.log_product
    r'.Report.log_product;
  List.iter
    (fun (what, solve') -> Alcotest.(check string) what "miss" (status (solve' c')))
    [
      ("other day", fun c -> solve ~day:1 c);
      ("other machine", fun c -> solve ~machine_name:"IBMQ14-twin" c);
      ( "equal but distinct token",
        fun c -> solve ~reliability:(reliability_for Machines.ibmq14) c );
    ];
  let st = Triq.Placement.cache_stats () in
  Alcotest.(check (list int)) "hits, misses, resident" [ 1; 4; 4 ]
    [ st.Parallel.Memo.hits; st.Parallel.Memo.misses; st.Parallel.Memo.size ]

let test_cache_near_miss_graphs () =
  (* Same degree sequence, different graphs: must not collide. *)
  Triq.Placement.cache_clear ();
  let tri = cnot_circuit 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] [] in
  let cyc = cnot_circuit 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] [] in
  Alcotest.(check string) "triangles miss" "miss" (status (solve tri));
  Alcotest.(check string) "cycle must not hit" "miss" (status (solve cyc))

let test_pipeline_relabel_hit () =
  (* Through the whole pipeline: a relabeled program reuses the layout of
     the original and compiles to a placement of the same quality. *)
  Triq.Placement.cache_clear ();
  let c = (Programs.bv 4).Programs.circuit in
  let n = c.Circuit.n_qubits in
  let layout c =
    let r = Triq.Pipeline.compile_level Machines.ibmq14 c ~level:Triq.Pipeline.OneQOptCN in
    match r.Triq.Compiled.layout with
    | Some l -> l
    | None -> Alcotest.fail "expected a layout report"
  in
  let l = layout c in
  let l' = layout (Circuit.map_qubits ~n_qubits:n (fun q -> (q + 1) mod n) c) in
  Alcotest.(check (pair string string)) "miss, then relabeled hit" ("miss", "hit")
    (status l, status l');
  Alcotest.(check (float 0.)) "identical objective" l.Report.objective l'.Report.objective

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
   B&B's Max_min rule starting from the same trivial incumbent. *)
let brute_force (pr : Layout.Problem.t) =
  let best = ref (Layout.Problem.evaluate pr (Layout.Problem.trivial pr)) in
  let placement = Array.make pr.Layout.Problem.n_program (-1) in
  let used = Array.make pr.Layout.Problem.n_hardware false in
  let rec go p =
    if p = pr.Layout.Problem.n_program then begin
      let m, lp = Layout.Problem.evaluate pr placement in
      let best_min, best_log = !best in
      if m > best_min +. 1e-12 || (m > best_min -. 1e-12 && lp > best_log) then
        best := (m, lp)
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

(* ---------- Reports ---------- *)

let test_pipeline_layout_report () =
  Triq.Placement.cache_clear ();
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
    Triq.Placement.cache_clear ();
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
        [ Alcotest.test_case "bit identity (cold + cached)" `Quick test_golden_bit_identity ] );
      ( "canon",
        [
          Alcotest.test_case "isomorphic relabel" `Quick test_canon_isomorphic_relabel;
          Alcotest.test_case "near-miss graphs" `Quick test_canon_near_miss;
          Alcotest.test_case "measured set" `Quick test_canon_measured_distinguishes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "relabel hit" `Quick test_cache_relabel_hit;
          Alcotest.test_case "near-miss graphs" `Quick test_cache_near_miss_graphs;
          Alcotest.test_case "pipeline relabel hit" `Quick test_pipeline_relabel_hit;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "objective agreement" `Quick test_strategies_agree_on_objective;
          QCheck_alcotest.to_alcotest prop_tie_bound_exact;
        ] );
      ( "reports",
        [
          Alcotest.test_case "pipeline report" `Quick test_pipeline_layout_report;
          Alcotest.test_case "strategy dispatch" `Quick test_pipeline_strategy_dispatch;
        ] );
    ]
