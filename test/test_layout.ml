(* Layout-engine tests: golden bit-identity of the compiled artifact
   against the Pipeline.compile_level digests in layout_golden.ml,
   canonical-form behaviour, cache semantics, B&B/SMT objective
   agreement, and the structured-report contract. *)

module Machine = Device.Machine
module Machines = Device.Machines
module Programs = Bench_kit.Programs
module Circuit = Ir.Circuit
module G = Ir.Gate
module Report = Layout.Report
module Canon = Layout.Canon
module Cache = Layout.Cache

let reliability_for machine =
  Triq.Reliability.compute ~noise_aware:true machine (Machine.calibration machine ~day:0)

(* ---------- Golden bit-identity ---------- *)

(* Same digest as test/gen_golden: every output-relevant field of the
   compiled artifact, but not timing or search-effort metadata. *)
let digest (r : Triq.Pipeline.t) =
  let payload =
    ( r.Triq.Pipeline.hardware.Ir.Circuit.gates,
      r.Triq.Pipeline.hardware.Ir.Circuit.n_qubits,
      r.Triq.Pipeline.initial_placement,
      r.Triq.Pipeline.final_placement,
      r.Triq.Pipeline.readout_map,
      r.Triq.Pipeline.swap_count,
      r.Triq.Pipeline.two_q_count,
      r.Triq.Pipeline.pulse_count,
      r.Triq.Pipeline.flipped_cnots,
      r.Triq.Pipeline.esp )
  in
  Digest.to_hex (Digest.string (Marshal.to_string payload []))

let machine_by_name name = List.find (fun m -> m.Machine.name = name) Machines.all
let program_by_name name = List.find (fun p -> p.Programs.name = name) Programs.all

let level_of_string_exn s =
  match Triq.Pipeline.level_of_string s with
  | Some l -> l
  | None -> Alcotest.failf "unknown level %S" s

let test_golden_bit_identity () =
  (* Every bundled benchmark x machine x level must compile to exactly the
     artifact the pre-refactor pipeline produced (digests pinned in
     layout_golden.ml before the layout engine existed). The matrix runs
     twice: the first sweep exercises cold solves (cache misses), the
     second the cache-hit path, which must reproduce the same placements
     bit-for-bit after canonical-permutation translation. *)
  Triq.Placement.cache_clear ();
  Alcotest.(check bool) "fixture is non-trivial" true
    (List.length Layout_golden.entries > 100);
  for round = 1 to 2 do
    List.iter
      (fun (machine, program, level, expected) ->
        let m = machine_by_name machine in
        let p = program_by_name program in
        let r =
          Triq.Pipeline.compile_level m p.Programs.circuit
            ~level:(level_of_string_exn level)
        in
        let got = digest r in
        if got <> expected then
          Alcotest.failf "round %d: %s/%s/%s: digest %s, expected %s" round
            machine program level got expected)
      Layout_golden.entries
  done

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

(* A deliberately non-uniform score model so that permutation-translation
   mistakes change the objective. *)
let score a b = 0.80 +. (0.01 *. float_of_int (((a * 7) + (b * 3)) mod 13))
let readout q = 0.90 +. (0.005 *. float_of_int q)

let problem_of ?(n_hardware = 8) ~n_program pairs measured =
  Layout.Problem.make ~n_program ~n_hardware ~pairs ~measured ~score ~readout ()

let test_cache_relabel_hit () =
  let cache = Cache.create ~capacity:8 () in
  let token = ref 0 in
  let pairs = [ ((0, 1), 2); ((1, 2), 1); ((2, 3), 3) ] in
  let perm = [| 2; 3; 1; 0 |] in
  let pr = problem_of ~n_program:4 pairs [ 3 ] in
  let pr' = problem_of ~n_program:4 (relabel_pairs perm pairs) [ perm.(3) ] in
  let a = Canon.of_problem pr and b = Canon.of_problem pr' in
  let r = Layout.Bb.solve pr in
  Cache.store cache ~token ~scope:"s" a ~strategy:"bb" ~proven_optimal:true
    r.Report.placement;
  (match Cache.lookup cache ~token ~scope:"s" b with
  | None -> Alcotest.fail "expected a hit on the isomorphic relabeling"
  | Some (placement, strategy, optimal) ->
    Alcotest.(check string) "stored strategy" "bb" strategy;
    Alcotest.(check bool) "stored optimality" true optimal;
    let obj, log = Layout.Problem.evaluate pr' placement in
    let obj0, log0 = Layout.Problem.evaluate pr r.Report.placement in
    Alcotest.(check (float 0.)) "objective preserved by translation" obj0 obj;
    Alcotest.(check (float 0.)) "log-product preserved" log0 log);
  (* Same form under a different scope or a different (physical) token
     must miss: structural equality of tokens is not enough. *)
  Alcotest.(check bool) "scope miss" true
    (Cache.lookup cache ~token ~scope:"other" b = None);
  Alcotest.(check bool) "token miss" true
    (Cache.lookup cache ~token:(ref 0) ~scope:"s" b = None);
  let st = Cache.stats cache in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Cache.misses

let test_cache_near_miss_graphs () =
  (* Same degree sequence, different edges: must not collide. *)
  let cache = Cache.create ~capacity:8 () in
  let token = ref 0 in
  let a = Canon.of_interactions ~n:6 ~pairs:two_triangles ~measured:[] in
  let b = Canon.of_interactions ~n:6 ~pairs:six_cycle ~measured:[] in
  Cache.store cache ~token ~scope:"s" a ~strategy:"bb" ~proven_optimal:true
    [| 0; 1; 2; 3; 4; 5 |];
  Alcotest.(check bool) "near-miss graph misses" true
    (Cache.lookup cache ~token ~scope:"s" b = None)

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let token = ref 0 in
  let form_of i = Canon.of_interactions ~n:3 ~pairs:[ ((0, 1), i + 1) ] ~measured:[] in
  let store c = Cache.store cache ~token ~scope:"s" c ~strategy:"bb" ~proven_optimal:true [| 0; 1; 2 |] in
  let a = form_of 0 and b = form_of 1 and c = form_of 2 in
  store a;
  store b;
  (* Touch [a] so [b] is the least recently used, then overflow. *)
  ignore (Cache.lookup cache ~token ~scope:"s" a);
  store c;
  let st = Cache.stats cache in
  Alcotest.(check int) "bounded" 2 st.Cache.size;
  Alcotest.(check int) "one eviction" 1 st.Cache.evictions;
  Alcotest.(check bool) "recently used survives" true
    (Cache.lookup cache ~token ~scope:"s" a <> None);
  Alcotest.(check bool) "LRU evicted" true (Cache.lookup cache ~token ~scope:"s" b = None);
  Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Cache.stats cache).Cache.size

let cnot_circuit n pairs measured =
  Circuit.create n
    (List.map (fun (a, b) -> G.Two (G.Cnot, a, b)) pairs
    @ List.map (fun q -> G.Measure q) measured)

let test_placement_cache_hits_relabeled_circuit () =
  (* End-to-end satellite: isomorphic program relabelings must hit the
     same entry of the process-wide cache; near-miss graphs must not. *)
  Triq.Placement.cache_clear ();
  let machine = Machines.ibmq14 in
  let reliability = reliability_for machine in
  let solve c =
    Triq.Placement.solve ~reliability ~machine_name:machine.Machine.name ~day:0 c
  in
  let c1 = cnot_circuit 3 [ (0, 1); (1, 2) ] [ 2 ] in
  (* The same line relabeled by 0->2, 1->0, 2->1. *)
  let c2 = cnot_circuit 3 [ (2, 0); (0, 1) ] [ 1 ] in
  let r1 = solve c1 in
  let r2 = solve c2 in
  Alcotest.(check string) "cold solve misses" "miss" (Report.cache_status_name r1.Report.cache);
  Alcotest.(check string) "relabeling hits" "hit" (Report.cache_status_name r2.Report.cache);
  Alcotest.(check (float 0.)) "identical score" r1.Report.objective r2.Report.objective;
  (* Near-miss pair: same degree sequence, different graphs. *)
  let tri = cnot_circuit 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] [] in
  let cyc = cnot_circuit 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] [] in
  let rt = solve tri in
  let rc = solve cyc in
  Alcotest.(check string) "triangles miss" "miss" (Report.cache_status_name rt.Report.cache);
  Alcotest.(check string) "cycle must not hit" "miss" (Report.cache_status_name rc.Report.cache)

let test_placement_cache_disabled () =
  let machine = Machines.ibmq5 in
  let reliability = reliability_for machine in
  let config = Layout.Config.make ~cache:false () in
  let c = cnot_circuit 2 [ (0, 1) ] [ 0; 1 ] in
  let r =
    Triq.Placement.solve ~config ~reliability ~machine_name:machine.Machine.name
      ~day:0 c
  in
  Alcotest.(check string) "bypass" "bypass" (Report.cache_status_name r.Report.cache)

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

(* ---------- Reports ---------- *)

let test_pipeline_layout_report () =
  Triq.Placement.cache_clear ();
  let machine = Machines.ibmq5 in
  let c = (Programs.bv 4).Programs.circuit in
  let r = Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.OneQOptCN in
  (match r.Triq.Pipeline.layout with
  | None -> Alcotest.fail "solver levels must report a layout"
  | Some l ->
    Alcotest.(check string) "default strategy" "bb" l.Report.strategy;
    Alcotest.(check bool) "did some work" true (Report.work_total l.Report.work > 0);
    Alcotest.(check bool) "proved optimality" true l.Report.proven_optimal;
    Alcotest.(check bool) "placement recorded" true
      (l.Report.placement = r.Triq.Pipeline.initial_placement));
  let rn = Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.N in
  Alcotest.(check bool) "identity mapping has no layout" true
    (rn.Triq.Pipeline.layout = None)

let test_pipeline_strategy_dispatch () =
  let machine = Machines.ibmq5 in
  let c = (Programs.bv 4).Programs.circuit in
  let strategy_of mapper =
    let config = Triq.Pass.Config.make ~mapper ~layout_cache:false () in
    let r =
      Triq.Pipeline.compile_level ~config machine c ~level:Triq.Pipeline.OneQOptCN
    in
    match r.Triq.Pipeline.layout with
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
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "pipeline relabel hit" `Quick
            test_placement_cache_hits_relabeled_circuit;
          Alcotest.test_case "bypass" `Quick test_placement_cache_disabled;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "objective agreement" `Quick test_strategies_agree_on_objective;
        ] );
      ( "reports",
        [
          Alcotest.test_case "pipeline report" `Quick test_pipeline_layout_report;
          Alcotest.test_case "strategy dispatch" `Quick test_pipeline_strategy_dispatch;
        ] );
    ]
