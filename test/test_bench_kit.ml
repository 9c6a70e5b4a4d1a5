(* Benchmark-suite tests: the 12 programs compute their textbook answers,
   the sequence and supremacy generators behave, and the experiment
   harness produces shape-correct data. *)

module Programs = Bench_kit.Programs
module Sequences = Bench_kit.Sequences
module Supremacy = Bench_kit.Supremacy
module Experiments = Bench_kit.Experiments
module Circuit = Ir.Circuit
module G = Ir.Gate

let expected_bits (p : Programs.t) =
  match p.Programs.spec.Ir.Spec.expected with
  | [ (bits, _) ] -> bits
  | _ -> Alcotest.failf "%s: spec not deterministic" p.Programs.name

(* ---------- The 12 programs ---------- *)

let test_twelve_benchmarks () =
  Alcotest.(check int) "count" 12 (List.length Programs.all);
  Alcotest.(check (list string)) "paper order"
    [ "BV4"; "BV6"; "BV8"; "HS2"; "HS4"; "HS6"; "Toffoli"; "Fredkin"; "Or";
      "Peres"; "QFT4"; "Adder" ]
    (List.map (fun (p : Programs.t) -> p.Programs.name) Programs.all)

let test_bv_answers () =
  (* BV recovers the hidden string. *)
  Alcotest.(check string) "bv4" "111" (expected_bits (Programs.bv 4));
  Alcotest.(check string) "bv6" "11111" (expected_bits (Programs.bv 6));
  Alcotest.(check string) "bv8" "1111111" (expected_bits (Programs.bv 8));
  Alcotest.(check string) "bv custom" "101" (expected_bits (Programs.bv_with_string "101"))

let test_hs_answers () =
  (* Hidden shift recovers the shift pattern. *)
  Alcotest.(check string) "hs2" "11" (expected_bits (Programs.hidden_shift 2));
  Alcotest.(check string) "hs4" "1111" (expected_bits (Programs.hidden_shift 4));
  Alcotest.(check string) "hs custom" "1010"
    (expected_bits (Programs.hidden_shift_with "1010"))

let test_logic_gate_answers () =
  (* Toffoli on |110>: target flips -> 111. *)
  Alcotest.(check string) "toffoli" "111" (expected_bits Programs.toffoli);
  (* Fredkin on |1;1,0>: targets swap -> 101. *)
  Alcotest.(check string) "fredkin" "101" (expected_bits Programs.fredkin);
  (* Or of 1,0 -> target 1, inputs restored. *)
  Alcotest.(check string) "or" "101" (expected_bits Programs.or_gate);
  (* Peres on |110>: b ^= a, c ^= ab -> 101. *)
  Alcotest.(check string) "peres" "101" (expected_bits Programs.peres)

let test_adder_answer () =
  (* 1 + 1 + 0: sum bit 0, carry 1; inputs cin=0 and a=1 restored. *)
  Alcotest.(check string) "adder" "0101" (expected_bits Programs.adder)

let test_qft_deterministic () =
  let p = Programs.qft 4 in
  (* k = 2^(n-1) + 1 = 9 = 1001 in the measured bit order. *)
  Alcotest.(check string) "qft4 recovers k" "1001" (expected_bits p);
  Alcotest.(check string) "qft3" "101" (expected_bits (Programs.qft 3))

let test_program_validation () =
  Alcotest.(check bool) "bv too small" true
    (try ignore (Programs.bv 1); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "hs odd" true
    (try ignore (Programs.hidden_shift 3); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad custom" true
    (try
       ignore
         (Programs.custom ~name:"bad" ~description:"superposition" ~n:1
            [ G.One (G.H, 0) ] ~measured:[ 0 ]);
       false
     with Failure _ -> true)

let test_find () =
  Alcotest.(check bool) "toffoli found" true (Programs.find "toffoli" <> None);
  Alcotest.(check bool) "missing" true (Programs.find "nonesuch" = None)

let test_extras () =
  Alcotest.(check int) "four extras" 4 (List.length Programs.extras);
  (* GHZ's spec is a distribution; runs must score well on UMDTI. *)
  let ghz = Programs.ghz 3 in
  Alcotest.(check int) "two outcomes" 2
    (List.length ghz.Programs.spec.Ir.Spec.expected);
  let compiled =
    Triq.Pipeline.compile_level Device.Machines.umdti ghz.Programs.circuit
      ~level:Triq.Pipeline.OneQOptCN
  in
  let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled ghz.Programs.spec in
  Alcotest.(check bool)
    (Printf.sprintf "ghz high overlap (%.2f)" outcome.Sim.Runner.success_rate)
    true
    (outcome.Sim.Runner.success_rate > 0.85);
  (* Grover2 is deterministic. *)
  Alcotest.(check string) "grover answer" "11" (expected_bits Programs.grover2);
  Alcotest.(check bool) "extras findable" true (Programs.find "ghz5" <> None);
  (* Grover3 after 2 iterations concentrates ~94.5% on |111>. *)
  let g3 = Programs.grover3 2 in
  (match List.assoc_opt "111" g3.Programs.spec.Ir.Spec.expected with
  | Some p -> Alcotest.(check bool) (Printf.sprintf "grover3 peak %.3f" p) true (p > 0.9)
  | None -> Alcotest.fail "grover3 expected distribution lacks |111>")

(* ---------- Scaffold sources of the 12 benchmarks ---------- *)

let test_scaffold_sources_match_builtins () =
  List.iter2
    (fun (name, source) (p : Programs.t) ->
      Alcotest.(check string) (name ^ " named consistently") name p.Programs.name;
      let lowered = Scaffold.Lower.compile_string source in
      (* Same measured-qubit order... *)
      Alcotest.(check (list int)) (name ^ " measured")
        p.Programs.spec.Ir.Spec.measured lowered.Scaffold.Lower.measured;
      (* ... and the same (deterministic) answer. *)
      let dist =
        Sim.Runner.ideal_distribution
          (Circuit.body lowered.Scaffold.Lower.circuit)
          ~measured:lowered.Scaffold.Lower.measured
      in
      match (dist, p.Programs.spec.Ir.Spec.expected) with
      | (bits, prob) :: _, [ (expected, _) ] ->
        Alcotest.(check string) (name ^ " answer") expected bits;
        if prob < 0.99 then Alcotest.failf "%s: not deterministic (%f)" name prob
      | _ -> Alcotest.failf "%s: unexpected spec shape" name)
    Bench_kit.Scaffold_sources.all Programs.all

let test_scaffold_sources_gate_counts () =
  (* The source-level programs must have the same 2Q structure as the IR
     constructions (same interaction multiset after flattening). *)
  List.iter2
    (fun (name, source) (p : Programs.t) ->
      let lowered = Scaffold.Lower.compile_string source in
      let count c = Circuit.two_q_count (Ir.Decompose.flatten c) in
      Alcotest.(check int) (name ^ " 2q count")
        (count p.Programs.circuit)
        (count lowered.Scaffold.Lower.circuit))
    Bench_kit.Scaffold_sources.all Programs.all

(* ---------- Sequences ---------- *)

let test_sequences_parity () =
  (* k Toffolis on |110>: target ends at k mod 2. *)
  Alcotest.(check string) "x1" "111" (expected_bits (Sequences.toffoli 1));
  Alcotest.(check string) "x2" "110" (expected_bits (Sequences.toffoli 2));
  Alcotest.(check string) "x3" "111" (expected_bits (Sequences.toffoli 3));
  Alcotest.(check string) "fredkin x1" "101" (expected_bits (Sequences.fredkin 1));
  Alcotest.(check string) "fredkin x2" "110" (expected_bits (Sequences.fredkin 2))

let test_sequences_grow () =
  let twoq k =
    Circuit.two_q_count (Ir.Decompose.flatten (Sequences.toffoli k).Programs.circuit)
  in
  Alcotest.(check int) "linear growth" (2 * twoq 1) (twoq 2);
  Alcotest.(check bool) "validation" true
    (try ignore (Sequences.toffoli 0); false with Invalid_argument _ -> true)

(* ---------- Supremacy ---------- *)

let test_supremacy_shape () =
  let c = Supremacy.circuit ~seed:1 ~rows:4 ~cols:4 ~depth:8 in
  Alcotest.(check int) "qubits" 16 c.Circuit.n_qubits;
  Alcotest.(check bool) "has 2q gates" true (Supremacy.two_q_count c > 0);
  (* All CZs must be grid-adjacent. *)
  let topo = Device.Topology.grid 4 4 in
  List.iter
    (fun g ->
      match (g : G.t) with
      | Two (Cz, a, b) ->
        if not (Device.Topology.coupled topo a b) then Alcotest.fail "non-adjacent CZ"
      | Two _ -> Alcotest.fail "unexpected 2q kind"
      | _ -> ())
    c.Circuit.gates

let test_supremacy_deterministic () =
  let a = Supremacy.circuit ~seed:7 ~rows:4 ~cols:4 ~depth:8 in
  let b = Supremacy.circuit ~seed:7 ~rows:4 ~cols:4 ~depth:8 in
  let c = Supremacy.circuit ~seed:8 ~rows:4 ~cols:4 ~depth:8 in
  Alcotest.(check bool) "same seed" true (Circuit.equal a b);
  Alcotest.(check bool) "different seed" false (Circuit.equal a c)

let test_supremacy_paper_scale () =
  (* 72 qubits, depth 128: the paper's largest configuration has ~2032 2Q
     gates; our generator should land in that regime. *)
  let c = Supremacy.circuit ~seed:1 ~rows:6 ~cols:12 ~depth:128 in
  Alcotest.(check int) "qubits" 72 c.Circuit.n_qubits;
  let n = Supremacy.two_q_count c in
  Alcotest.(check bool) (Printf.sprintf "2q count %d in range" n) true
    (n > 1500 && n < 6000)

(* ---------- Experiment harness (shape checks, small trajectories) ---------- *)

let test_fig1_shape () =
  let rows = Experiments.fig1_rows () in
  Alcotest.(check int) "seven rows" 7 (List.length rows)

let test_fig3_shape () =
  let series = Experiments.fig3_series () in
  Alcotest.(check int) "four couplings" 4 (List.length series);
  List.iter
    (fun (_, values) ->
      Alcotest.(check int) "26 days" 26 (List.length values);
      List.iter (fun v -> if v <= 0.0 || v > 0.5 then Alcotest.fail "bad error rate") values)
    series

let test_fig8_shape () =
  let data = Experiments.fig8_data () in
  Alcotest.(check int) "three machines" 3 (List.length data);
  List.iter
    (fun (machine, rows) ->
      Alcotest.(check int) (machine ^ " rows") 12 (List.length rows);
      (* 1QOpt never uses more pulses than N. *)
      List.iter
        (fun (r : int Experiments.row) ->
          match (List.assoc "TriQ-N" r.Experiments.values,
                 List.assoc "TriQ-1QOpt" r.Experiments.values) with
          | Some n, Some o ->
            if o > n then Alcotest.failf "%s/%s: %d > %d" machine r.Experiments.bench o n
          | None, None -> ()
          | _ -> Alcotest.fail "fit mismatch between levels")
        rows)
    data

let test_fig10_comm_opt_reduces () =
  let data = Experiments.fig10_counts () in
  List.iter
    (fun ((machine : string), rows) ->
      let geo =
        Experiments.geomean_improvement rows ~better:"TriQ-1QOptC"
          ~baseline:"TriQ-1QOpt" float_of_int
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s geomean %.2f >= 1" machine geo)
        true (geo >= 1.0))
    data

let test_fig11_noise_adaptivity_helps () =
  let rows = Experiments.fig11_ibm_success ~trajectories:100 () in
  let geo =
    Experiments.geomean_improvement ~invert:true rows ~better:"TriQ-1QOptCN"
      ~baseline:"Qiskit" Fun.id
  in
  Alcotest.(check bool) (Printf.sprintf "beats qiskit: %.2fx" geo) true (geo > 1.2)

let test_fig12_shape () =
  let rows = Experiments.fig12_data ~trajectories:60 () in
  Alcotest.(check int) "12 benchmarks" 12 (List.length rows);
  List.iter
    (fun (r : float Experiments.row) ->
      Alcotest.(check int) "seven machines" 7 (List.length r.Experiments.values);
      List.iter
        (fun (_, v) ->
          match v with
          | Some s -> if s < 0.0 || s > 1.0 then Alcotest.fail "rate out of range"
          | None -> ())
        r.Experiments.values)
    rows;
  (* UMDTI dominates on the benchmarks it fits (paper's headline cross-
     platform observation). *)
  let umd_wins =
    List.for_all
      (fun (r : float Experiments.row) ->
        match List.assoc "UMDTI" r.Experiments.values with
        | None -> true
        | Some umd ->
          List.for_all
            (fun (name, v) ->
              name = "UMDTI" || match v with None -> true | Some s -> umd >= s -. 0.05)
            r.Experiments.values)
      rows
  in
  Alcotest.(check bool) "umdti dominates" true umd_wins

let test_scaling_fast () =
  let data = Experiments.scaling_data ~node_budget:5_000 ~depth:8 () in
  Alcotest.(check int) "six instances" 6 (List.length data);
  let _, largest_qubits, _, largest_time = List.nth data 5 in
  Alcotest.(check int) "72 qubits" 72 largest_qubits;
  Alcotest.(check bool)
    (Printf.sprintf "72q compiles fast (%.2fs)" largest_time)
    true (largest_time < 30.0)

let test_related_improvement () =
  let rows = Experiments.related_data () in
  let geo =
    Experiments.geomean_improvement rows ~better:"TriQ-1QOptC" ~baseline:"Zulehner"
      float_of_int
  in
  Alcotest.(check bool) (Printf.sprintf "geomean %.2fx >= 1" geo) true (geo >= 1.0)

let test_geomean_improvement_helper () =
  let rows =
    [
      { Experiments.bench = "a"; values = [ ("x", Some 2.0); ("y", Some 4.0) ] };
      { Experiments.bench = "b"; values = [ ("x", Some 3.0); ("y", Some 6.0) ] };
    ]
  in
  (* Counts: lower better; x is 2x better than y. *)
  Alcotest.(check (float 1e-9)) "counts" 2.0
    (Experiments.geomean_improvement rows ~better:"x" ~baseline:"y" Fun.id);
  (* Rates: higher better; y is 2x better than x. *)
  Alcotest.(check (float 1e-9)) "rates" 2.0
    (Experiments.geomean_improvement ~invert:true rows ~better:"y" ~baseline:"x" Fun.id)

(* The spans [f ()] records. *)
let spans_of f =
  let module Span = Obs.Span in
  Span.enable ();
  Span.reset ();
  Fun.protect
    ~finally:(fun () -> Span.disable (); Span.reset ())
    (fun () ->
      ignore (f ());
      Span.collected ())

let named name spans = List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = name) spans

(* Every cell of a figure runs inside one [bench_kit.cell] span naming
   its coordinates, whether or not the program fits the machine. *)
let cell_spans f = named "bench_kit.cell" (spans_of f)

let str_attr (s : Obs.Span.t) key =
  match List.assoc_opt key s.Obs.Span.attrs with
  | Some (Obs.Span.Str v) -> v
  | _ -> Alcotest.failf "cell span lacks string attribute %S" key

let test_cell_spans () =
  let spans = cell_spans (fun () -> Experiments.fig9_data ~trajectories:5 ()) in
  let expected =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun (p : Programs.t) ->
            List.map (fun level -> (machine, level, p.Programs.name)) [ "TriQ-N"; "TriQ-1QOpt" ])
          Programs.all)
      [ "IBMQ14"; "UMDTI" ]
  in
  let seen =
    List.map
      (fun s ->
        Alcotest.(check bool) "day 0" true
          (List.assoc_opt "day" s.Obs.Span.attrs = Some (Obs.Span.Int 0));
        Alcotest.(check bool) "5 trajectories" true
          (List.assoc_opt "trajectories" s.Obs.Span.attrs = Some (Obs.Span.Int 5));
        (str_attr s "machine", str_attr s "compiler", str_attr s "benchmark"))
      spans
  in
  Alcotest.(check int) "one span per cell" (List.length expected) (List.length spans);
  Alcotest.(check (list (triple string string string)))
    "every cell once" (List.sort compare expected) (List.sort compare seen);
  (* A compile-only figure says so instead of giving a trajectory count. *)
  let spans = cell_spans Experiments.related_data in
  Alcotest.(check int) "related cells" 24 (List.length spans);
  List.iter
    (fun s -> Alcotest.(check string) "compile-only" "compile-only" (str_attr s "trajectories"))
    spans

let section id = List.find (fun s -> s.Experiments.id = id) Experiments.sections

(* A cell's attributes name the work it does: the lookahead router and
   the explicit-T1 noise model show up next to the plain TriQ-1QOptCN
   cell, which the lookahead and noisemodel sections both run (here on
   two runs, so each runs it). *)
let test_cell_attrs_tell_work_apart () =
  let spans =
    cell_spans (fun () ->
        ignore (Experiments.run ~trajectories:5 [ section "lookahead" ]);
        ignore (Experiments.run ~trajectories:5 [ section "noisemodel" ]))
  in
  let bv4 =
    List.filter (fun s -> str_attr s "machine" = "IBMQ14" && str_attr s "benchmark" = "BV4") spans
  in
  let extra s =
    List.find_map
      (fun (k, _) -> if k = "router" || k = "explicit_t1" then Some k else None)
      s.Obs.Span.attrs
  in
  let plain, other = List.partition (fun s -> extra s = None) bv4 in
  Alcotest.(check int) "default and folded cells" 2 (List.length plain);
  Alcotest.(check int) "plain cells alike" 1
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Obs.Span.attrs) plain)));
  Alcotest.(check (list (option string)))
    "lookahead and explicit T1 cells" [ Some "explicit_t1"; Some "router" ]
    (List.sort compare (List.map extra other))

(* ---------- Report generator ---------- *)

let test_report_sections () =
  let report = Bench_kit.Report.generate (Experiments.run ~trajectories:60 [ section "report" ]) in
  let contains needle =
    let h = String.length report and n = String.length needle in
    let rec scan i = i + n <= h && (String.sub report i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun section ->
      if not (contains section) then Alcotest.failf "report lacks %S" section)
    [
      "# TriQ reproduction"; "## Figure 1"; "## Figure 3"; "## Figure 8";
      "## Figure 9"; "## Figure 10"; "## Figure 11"; "## Figure 12";
      "## Section 6.5"; "## Headline summary"; "## Extensions"; "| Benchmark |";
    ];
  Alcotest.(check bool) "substantial" true (String.length report > 4000)

(* A report renders the run's grids: the run and the first report
   compute them, a second report on the same run compiles and simulates
   nothing. *)
let test_report_reads_run () =
  let run = ref None and first = ref "" and second = ref "" in
  let spans =
    spans_of (fun () ->
        let r = Experiments.run ~trajectories:5 [ section "report" ] in
        run := Some r;
        first := Bench_kit.Report.generate r)
  in
  let run = Option.get !run in
  Alcotest.(check bool) "first report compiles" true (named "compile" spans <> []);
  Alcotest.(check bool) "first report simulates" true (named "sim.run" spans <> []);
  let spans = spans_of (fun () -> second := Bench_kit.Report.generate run) in
  Alcotest.(check int) "second report compiles" 0 (List.length (named "compile" spans));
  Alcotest.(check int) "second report simulates" 0 (List.length (named "sim.run" spans));
  Alcotest.(check string) "same report" !first !second

(* Every section of one run, as a full bench run prints them: each
   distinct cell compiles once and each distinct (compile, runner config)
   simulates once, whichever sections show it; the 410 compiles are 404
   cells plus the scaling study's 6. *)
let test_sections_one_pass () =
  let spans =
    spans_of (fun () ->
        let run = Experiments.run ~trajectories:5 Experiments.sections in
        List.iter (fun s -> s.Experiments.render run) Experiments.sections)
  in
  Alcotest.(check int) "sim.run spans" 360 (List.length (named "sim.run" spans));
  Alcotest.(check int) "compile spans" 410 (List.length (named "compile" spans))

(* Every section renders from a run of its own: each names every cell
   grid it reads. *)
let test_sections_alone () =
  List.iter
    (fun s ->
      match s.Experiments.render (Experiments.run ~trajectories:5 [ s ]) with
      | () -> ()
      | exception e -> Alcotest.failf "section %s: %s" s.Experiments.id (Printexc.to_string e))
    Experiments.sections

(* Reading a grid the run did not plan names it. *)
let test_unplanned_grid () =
  let run = Experiments.run ~trajectories:5 [ section "fig9" ] in
  Alcotest.check_raises "fig12 not planned"
    (Invalid_argument "Experiments.run: grid fig12 was not planned")
    (fun () -> ignore (run.Bench_kit.Report.fig12 ()))

(* A batch keys cells on their inputs: a schedule with one name but a
   shorter pass list compiles again, and a runner config that differs
   only in [explicit_t1] simulates again; an identical cell does
   neither, and nor does one whose runner names the compile day. *)
let test_cell_keys () =
  let module Cell = Bench_kit.Cell in
  let m = Device.Machines.ibmq14 and p = Programs.bv 4 in
  let full = Triq.Pass.Schedule.of_level Triq.Pipeline.OneQOptCN in
  let partial = Result.get_ok (Triq.Pass.Schedule.disable full "mapping") in
  let sim = Sim.Runner.Config.make ~trajectories:5 () in
  let cell ?(sim = sim) compiler =
    { Cell.machine = m; program = p; compiler; config = Triq.Pass.Config.default; sim = Some sim }
  in
  let row =
    [
      ("full", cell full); ("again", cell full); ("no mapping", cell partial);
      ("explicit T1", cell ~sim:{ sim with Sim.Runner.Config.explicit_t1 = true } full);
      ("compile day", cell ~sim:{ sim with Sim.Runner.Config.day = Some 0 } full);
    ]
  in
  let success _ o = (Option.get o).Sim.Runner.success_rate in
  let values = ref [] in
  let spans =
    spans_of (fun () ->
        match Cell.run_cells success [ ("", [ ("BV4", row) ]) ] with
        | [ (_, [ r ]) ] -> values := r.Cell.values
        | _ -> Alcotest.fail "one row")
  in
  Alcotest.(check int) "compiles" 2 (List.length (named "compile" spans));
  Alcotest.(check int) "simulations" 3 (List.length (named "sim.run" spans));
  Alcotest.(check bool) "shared cell, same value" true
    (List.assoc "full" !values = List.assoc "again" !values);
  Alcotest.(check bool) "compile-day run, same value" true
    (List.assoc "full" !values = List.assoc "compile day" !values)

let () =
  Alcotest.run "bench_kit"
    [
      ( "programs",
        [
          Alcotest.test_case "twelve benchmarks" `Quick test_twelve_benchmarks;
          Alcotest.test_case "bv answers" `Quick test_bv_answers;
          Alcotest.test_case "hs answers" `Quick test_hs_answers;
          Alcotest.test_case "logic gates" `Quick test_logic_gate_answers;
          Alcotest.test_case "adder" `Quick test_adder_answer;
          Alcotest.test_case "qft" `Quick test_qft_deterministic;
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "extras (ghz, grover)" `Quick test_extras;
        ] );
      ( "scaffold sources",
        [
          Alcotest.test_case "match builtins" `Quick test_scaffold_sources_match_builtins;
          Alcotest.test_case "gate counts" `Quick test_scaffold_sources_gate_counts;
        ] );
      ( "sequences",
        [
          Alcotest.test_case "parity" `Quick test_sequences_parity;
          Alcotest.test_case "growth" `Quick test_sequences_grow;
        ] );
      ( "supremacy",
        [
          Alcotest.test_case "shape" `Quick test_supremacy_shape;
          Alcotest.test_case "deterministic" `Quick test_supremacy_deterministic;
          Alcotest.test_case "paper scale" `Quick test_supremacy_paper_scale;
        ] );
      ( "report",
        [
          Alcotest.test_case "sections" `Slow test_report_sections;
          Alcotest.test_case "reads the run" `Quick test_report_reads_run;
          Alcotest.test_case "one pass per run" `Quick test_sections_one_pass;
          Alcotest.test_case "each section alone" `Quick test_sections_alone;
          Alcotest.test_case "unplanned grid" `Quick test_unplanned_grid;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig1 shape" `Quick test_fig1_shape;
          Alcotest.test_case "fig3 shape" `Quick test_fig3_shape;
          Alcotest.test_case "fig8 monotone" `Quick test_fig8_shape;
          Alcotest.test_case "fig10 reduces 2q" `Quick test_fig10_comm_opt_reduces;
          Alcotest.test_case "fig11 beats qiskit" `Slow test_fig11_noise_adaptivity_helps;
          Alcotest.test_case "fig12 shape" `Slow test_fig12_shape;
          Alcotest.test_case "scaling fast" `Quick test_scaling_fast;
          Alcotest.test_case "related improvement" `Quick test_related_improvement;
          Alcotest.test_case "geomean helper" `Quick test_geomean_improvement_helper;
          Alcotest.test_case "cell spans" `Quick test_cell_spans;
          Alcotest.test_case "cell attributes" `Quick test_cell_attrs_tell_work_apart;
          Alcotest.test_case "cell keys" `Quick test_cell_keys;
        ] );
    ]
