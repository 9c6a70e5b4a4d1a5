module Machine = Device.Machine
module Machines = Device.Machines
module Calibration = Device.Calibration
module Gateset = Device.Gateset
module Topology = Device.Topology
module Pipeline = Triq.Pipeline
module Config = Triq.Pass.Config
module Schedule = Triq.Pass.Schedule
module Stats = Mathkit.Stats

type 'a row = 'a Cell.row = { bench : string; values : (string * 'a option) list }
type run = Report.run

let benches () = Programs.all

(* Every figure that compiles declares a grid: [Cell.request project
   groups] short of its receiver, or [rows_grid] for one unnamed group,
   read through [finish]. [run] batches the grids its sections read;
   [data] runs one alone. A column is a function from a row's program to
   its cell; [cell] and [triq] build the usual ones. *)
let rows_grid project rows k = Cell.request project [ ("", rows) ] (fun g -> k (snd (List.hd g)))
let finish f grid k = grid (fun v -> k (f v))

let data grid =
  let value = ref None in
  Cell.run_batch [ grid (fun v -> value := Some v) ];
  Option.get !value

let cell ?(config = Config.default) ?sim machine compiler program =
  { Cell.machine; program; compiler; config; sim }

let triq ?(config = Config.default) ?sim machine level =
  cell ~config ?sim machine (Schedule.of_level ~config level)

let on_day day = { Config.default with Config.day }

(* Columns for TriQ levels, named after the level. *)
let levels ?sim machine ls = List.map (fun l -> (Triq.Pass.level_name l, triq ?sim machine l)) ls

(* One row per program, one cell per column. *)
let rows programs cols =
  List.map
    (fun (p : Programs.t) -> (p.Programs.name, List.map (fun (name, col) -> (name, col p)) cols))
    programs

(* One group per machine, one row per benchmark. *)
let per_machine machines cols =
  List.map (fun m -> (m.Machine.name, rows (benches ()) (cols m))) machines

(* The fitting cells of a row, with their names. *)
let named r = List.filter_map (fun (name, v) -> Option.map (fun v -> (name, v)) v) r.values

(* The two values of a two-column row when both cells fit. *)
let pair r = match r.values with [ (_, Some a); (_, Some b) ] -> Some (a, b) | _ -> None

(* (key, first, second) for every keyed two-column row whose cells fit. *)
let keyed_pairs keyed =
  List.filter_map (fun (k, r) -> Option.map (fun (a, b) -> (k, a, b)) (pair r)) keyed

(* (row name, first, second) for every two-column row whose cells fit. *)
let pairs rows = keyed_pairs (List.map (fun r -> (r.bench, r)) rows)

let success _ outcome = (Option.get outcome).Sim.Runner.success_rate
let two_q (c : Triq.Compiled.t) _ = c.Triq.Compiled.two_q_count
let two_q_success c outcome = (two_q c outcome, success c outcome)

(* A per-benchmark text table. *)
let print_rows ~title to_string rows =
  let header, body = Table.row_table to_string rows in
  Table.print ~title ~header body

(* A text table of (key, first, second) triples. *)
let print_pairs ~title ~header key value data =
  Table.print ~title ~header (List.map (fun (k, a, b) -> [ key k; value a; value b ]) data)

(* A table of (benchmark, (2Q, success), (2Q, success)) rows, then the
   geomean success ratio of the second over the first. *)
let print_two_q_success ~title ~header label data =
  let cells (two_q, success) = [ string_of_int two_q; Table.f2 success ] in
  Table.print ~title ~header (List.map (fun (bench, a, b) -> (bench :: cells a) @ cells b) data);
  Printf.printf "%s: %.3fx\n" label
    (Stats.geomean_ratio (List.map (fun (_, (_, a), (_, b)) -> (b, a)) data))

(* ---------- Figure 1 ---------- *)

let topology_blurb machine =
  let topo = machine.Machine.topology in
  if Topology.is_fully_connected topo then "fully connected"
  else
    Printf.sprintf "%s, max degree %d"
      (if Topology.directed topo then "directed" else "undirected")
      (List.fold_left
         (fun acc q -> max acc (Topology.degree topo q))
         0
         (List.init (Topology.n_qubits topo) (fun q -> q)))

let fig1_rows () =
  List.map
    (fun m ->
      let p = m.Machine.profile in
      [
        m.Machine.name;
        string_of_int (Machine.n_qubits m);
        string_of_int (Topology.edge_count m.Machine.topology);
        Printf.sprintf "%.3g" p.Calibration.coherence_us;
        Table.f2 (100.0 *. p.Calibration.avg_one_q_err);
        Table.f2 (100.0 *. p.Calibration.avg_two_q_err);
        Table.f2 (100.0 *. p.Calibration.avg_readout_err);
        topology_blurb m;
      ])
    Machines.all

let print_fig1 (r : run) =
  Table.print ~title:"Figure 1: device characteristics"
    ~header:
      [ "Machine"; "Qubits"; "2Q couplings"; "T (us)"; "1Q err %"; "2Q err %";
        "RO err %"; "Topology" ]
    (Lazy.force r.fig1)

(* ---------- Figure 2 ---------- *)

let print_fig2 (_ : run) =
  Table.print ~title:"Figure 2: native and software-visible gates"
    ~header:[ "Vendor"; "Native gates"; "Software-visible gates" ]
  @@ List.map
    (fun basis ->
      [
        Gateset.vendor_name (Gateset.vendor_of_basis basis);
        Gateset.native_description basis;
        Gateset.visible_description basis;
      ])
    [ Gateset.Umd_visible; Gateset.Ibm_visible; Gateset.Rigetti_visible ]

(* ---------- Figure 3 ---------- *)

let fig3_edges = [ (6, 8); (7, 8); (9, 8); (13, 1) ]

let fig3_series () =
  let machine = Machines.ibmq14 in
  List.map
    (fun (a, b) ->
      let values =
        List.init 26 (fun day ->
            Calibration.two_q_err (Machine.calibration machine ~day) a b)
      in
      ((a, b), values))
    fig3_edges

let print_fig3 (r : run) =
  let series = Lazy.force r.fig3 in
  let header = "Day" :: List.map (fun ((a, b), _) -> Printf.sprintf "CNOT %d,%d" a b) series in
  let rows =
    List.init 26 (fun day ->
        string_of_int (day + 1)
        :: List.map (fun (_, values) -> Table.f3 (List.nth values day)) series)
  in
  Table.print ~title:"Figure 3: daily 2Q error variation on IBMQ14" ~header rows;
  List.iter
    (fun ((a, b), values) ->
      Printf.printf "CNOT %d,%d: min %.3f max %.3f (%.1fx range)\n" a b
        (Stats.minimum values) (Stats.maximum values)
        (Stats.maximum values /. Stats.minimum values))
    series

(* ---------- Table 1 ---------- *)

let print_tab1 (_ : run) =
  Table.print ~title:"Table 1: compilers and optimization levels"
    ~header:[ "Compiler"; "Description" ]
    [
      [ "TriQ-N"; "TriQ. No optimization. Default qubit mapping" ];
      [ "TriQ-1QOpt"; "TriQ, 1Q gate optimization. Default qubit mapping" ];
      [ "TriQ-1QOptC"; "TriQ. 1Q opt. Communication-optimized mapping" ];
      [ "TriQ-1QOptCN"; "TriQ. 1Q opt. Comm- and noise-optimized mapping" ];
      [ "Qiskit"; "IBM Qiskit 0.6-style baseline (reimplementation)" ];
      [ "Quil"; "Rigetti Quil 1.9-style baseline (reimplementation)" ];
    ]

(* ---------- Figures 5, 6, 7 ---------- *)

let print_fig5 (_ : run) =
  let bv4 = Programs.bv 4 in
  Printf.printf "\n== Figure 5: IR for Bernstein-Vazirani (BV4) ==\n%s"
    (Ir.Draw.render bv4.Programs.circuit)

let print_fig6 (_ : run) =
  let reliability =
    Triq.Reliability.of_calibration ~noise_aware:true
      Machines.example_8q.Machine.topology Machines.example_8q_calibration
  in
  (* Not Format.printf: once a domain has spawned, Format's own buffer
     reaches stdout only at exit. *)
  print_string
    (Format.asprintf "\n== Figure 6: 2Q reliability matrix (example 8-qubit device) ==@\n%a"
       Triq.Reliability.pp reliability)

let print_fig7 (_ : run) =
  Table.print ~title:"Figure 7: benchmarks"
    ~header:[ "Benchmark"; "Qubits"; "1Q (IR)"; "2Q (IR)"; "Description" ]
  @@ List.map
    (fun (p : Programs.t) ->
      let flat = Ir.Decompose.flatten p.Programs.circuit in
      [
        p.Programs.name;
        string_of_int p.Programs.circuit.Ir.Circuit.n_qubits;
        string_of_int (Ir.Circuit.one_q_count flat);
        string_of_int (Ir.Circuit.two_q_count flat);
        p.Programs.description;
      ])
    (benches ())

(* ---------- Figure 8 ---------- *)

let fig8_machines () = [ Machines.ibmq14; Machines.agave; Machines.umdti ]

let fig8_grid () =
  Cell.request
    (fun c _ -> c.Triq.Compiled.pulse_count)
    (per_machine (fig8_machines ()) (fun m -> levels m Pipeline.[ N; OneQOpt ]))

let print_fig8 (r : run) =
  List.iter
    (fun (name, rows) ->
      print_rows ~title:(Printf.sprintf "Figure 8 (%s): native 1Q pulse counts" name)
        Table.opt_int rows)
    (r.fig8 ())

(* ---------- geomean helper ---------- *)

let geomean_improvement ?(invert = false) rows ~better ~baseline to_float =
  let pairs =
    List.filter_map
      (fun r ->
        match (List.assoc_opt better r.values, List.assoc_opt baseline r.values) with
        | Some (Some b), Some (Some base) ->
          let b = to_float b and base = to_float base in
          if invert then if base = 0.0 then None else Some (b, base)
          else if b = 0.0 then None
          else Some (base, b)
        | _ -> None)
      rows
  in
  (* Missing rows (machine skipped, benchmark absent) are a legitimate
     report state, not a programming error: keep NaN as the "no data"
     marker rather than letting geomean_ratio raise. *)
  match Stats.geomean_ratio_opt pairs with
  | Some g -> g
  | None -> Float.nan

(* A success-rate table and the geomean gain of [better] over [baseline]. *)
let print_gain ~title label ~better ~baseline rows =
  print_rows ~title Table.opt_f2 rows;
  Printf.printf "%s: %.2fx\n" label (geomean_improvement ~invert:true rows ~better ~baseline Fun.id)

(* A 2Q-count table and the geomean reduction of [better] over [baseline]. *)
let print_reduction ~title label ~better ~baseline rows =
  print_rows ~title Table.opt_int rows;
  Printf.printf "%s: %.2fx\n" label (geomean_improvement rows ~better ~baseline float_of_int)

(* ---------- Figure 9 ---------- *)

let fig9_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () in
  Cell.request success
    (per_machine [ Machines.ibmq14; Machines.umdti ] (fun m ->
         levels ~sim m Pipeline.[ N; OneQOpt ]))

let print_fig9 (r : run) =
  List.iter
    (fun (name, rows) ->
      print_gain ~title:(Printf.sprintf "Figure 9 (%s): success rate, TriQ-N vs TriQ-1QOpt" name)
        "geomean improvement (1QOpt over N)" ~better:"TriQ-1QOpt" ~baseline:"TriQ-N" rows)
    (r.fig9 ())

(* ---------- Figure 10 ---------- *)

let fig10_counts_grid () =
  Cell.request two_q
    (per_machine [ Machines.ibmq14; Machines.agave ] (fun m ->
         levels m Pipeline.[ OneQOpt; OneQOptC ]))

let fig10_success_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () in
  rows_grid success (rows (benches ()) (levels ~sim Machines.ibmq14 Pipeline.[ OneQOpt; OneQOptC ]))

let print_fig10 (r : run) =
  List.iter
    (fun (name, rows) ->
      print_reduction ~title:(Printf.sprintf "Figure 10 (%s): 2Q gate count, +-comm. opt" name)
        "geomean 2Q reduction" ~better:"TriQ-1QOptC" ~baseline:"TriQ-1QOpt" rows)
    (r.fig10_counts ());
  print_rows ~title:"Figure 10c (IBMQ14): success rate, +-comm. opt" Table.opt_f2
    (r.fig10_success ())

(* ---------- Figure 11 ---------- *)

(* Figure 11a's 2Q counts (compile-only) and 11b's success rates: one
   set of compiles. *)
let fig11_ibm_rows ?sim () =
  let m = Machines.ibmq14 in
  rows (benches ())
    (("Qiskit", cell ?sim m (Baselines.Qiskit_like.schedule ()))
    :: levels ?sim m Pipeline.[ OneQOptC; OneQOptCN ])

let fig11_counts_grid () = rows_grid two_q (fig11_ibm_rows ())

let fig11_ibm_grid ?trajectories () =
  rows_grid success (fig11_ibm_rows ~sim:(Sim.Runner.Config.make ?trajectories ()) ())

let fig11_rigetti_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () in
  Cell.request success
    (per_machine [ Machines.agave; Machines.aspen1 ] (fun m ->
         ("Quil", cell ~sim m Baselines.Quil_like.schedule)
         :: levels ~sim m Pipeline.[ OneQOptCN ]))

let fig11_sequences_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () in
  let cols = levels ~sim Machines.umdti Pipeline.[ OneQOptC; OneQOptCN ] in
  Cell.request success
    [
      ("Toffoli sequence", rows (List.init 8 (fun i -> Sequences.toffoli (i + 1))) cols);
      ("Fredkin sequence", rows (List.init 7 (fun i -> Sequences.fredkin (i + 1))) cols);
    ]

let print_fig11 (r : run) =
  print_rows ~title:"Figure 11a (IBMQ14): 2Q gate count vs Qiskit" Table.opt_int
    (r.fig11_counts ());
  print_gain ~title:"Figure 11b (IBMQ14): success rate vs Qiskit" "geomean improvement over Qiskit"
    ~better:"TriQ-1QOptCN" ~baseline:"Qiskit" (r.fig11_ibm ());
  List.iter
    (fun (name, rows) ->
      print_gain ~title:(Printf.sprintf "Figure 11c/d (%s): success rate vs Quil" name)
        "geomean improvement over Quil" ~better:"TriQ-1QOptCN" ~baseline:"Quil" rows)
    (r.fig11_rigetti ());
  List.iter
    (fun (name, rows) ->
      print_rows ~title:(Printf.sprintf "Figure 11e/f (UMDTI): %s, +-noise adaptivity" name)
        Table.opt_f2 rows)
    (r.fig11_sequences ())

(* ---------- Figure 12 ---------- *)

let fig12_rows ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () in
  rows (benches ())
    (List.map (fun m -> (m.Machine.name, triq ~sim m Pipeline.OneQOptCN)) Machines.all)

let fig12_grid ?trajectories () = rows_grid success (fig12_rows ?trajectories ())

(* (ESP, success) of Figure 12's cells, for the [esp] section. *)
let esp_grid ?trajectories () =
  rows_grid (fun c o -> (c.Triq.Compiled.esp, success c o)) (fig12_rows ?trajectories ())

let print_fig12 (r : run) =
  print_rows ~title:"Figure 12: success rate, 12 benchmarks x 7 systems (TriQ-1QOptCN)"
    Table.opt_f2 (r.fig12 ())

(* ---------- Scaling (Section 6.5) ---------- *)

let scaling_grids depth =
  [
    (4, 4, depth); (5, 5, depth); (6, 6, depth); (6, 9, depth); (6, 12, depth);
    (* The paper's largest configuration: 72 qubits, depth 128,
       ~2000 two-qubit gates. *)
    (6, 12, 128);
  ]

(* Not a cell: a supremacy circuit has no spec to score, and this study
   reads only the compile. *)
let scaling_data ?(node_budget = 20_000) ?(depth = 16) () =
  Parallel.Pool.map (Parallel.Pool.default ())
    (fun (rows, cols, depth) ->
      let n = rows * cols in
      let machine = Machines.bristlecone rows cols in
      let circuit = Supremacy.circuit ~seed:(1000 + n) ~rows ~cols ~depth in
      let config = Config.make ~node_budget () in
      let compiled = Pipeline.compile_level ~config machine circuit ~level:Pipeline.OneQOptCN in
      ( Printf.sprintf "%dx%d d%d" rows cols depth,
        n,
        compiled.Triq.Compiled.two_q_count,
        compiled.Triq.Compiled.compile_time_s ))
    (scaling_grids depth)

(* The rows of the text table and of the report's. *)
let scaling_rows () =
  List.map
    (fun (label, n, twoq, secs) ->
      [ label; string_of_int n; string_of_int twoq; Printf.sprintf "%.2f" secs ])
    (scaling_data ())

let print_scaling (r : run) =
  Table.print ~title:"Section 6.5: compile-time scaling on supremacy circuits"
    ~header:[ "Grid"; "Qubits"; "2Q gates (mapped)"; "Compile time (s)" ]
    (Lazy.force r.scaling)

(* ---------- Related work (Section 8) ---------- *)

let related_grid () =
  let m = Machines.ibmq16 in
  rows_grid two_q
    (rows (benches ())
       (("Zulehner", cell m Baselines.Zulehner_like.schedule) :: levels m Pipeline.[ OneQOptC ]))

let print_related (r : run) =
  print_reduction ~title:"Section 8: 2Q count, hop-minimizing mapper vs TriQ (IBMQ16)"
    "geomean 2Q reduction over Zulehner-style mapper" ~better:"TriQ-1QOptC" ~baseline:"Zulehner"
    (r.related ())

(* ---------- Extensions beyond the paper's figures ---------- *)

(* Mapper-objective ablation (Section 4.3's scalability argument): the
   max-min objective prunes far earlier than the whole-graph product
   objective, at equal or better mapped quality. Runs the layout engines
   directly, outside the mapping pass. *)
let ablation_mapper_data ?(node_budget = 200_000) () =
  let machine = Machines.ibmq16 in
  let calibration = Machine.calibration machine ~day:0 in
  let reliability =
    Triq.Reliability.of_calibration ~noise_aware:true machine.Machine.topology calibration
  in
  List.filter_map Fun.id
  @@ Parallel.Pool.map (Parallel.Pool.default ())
    (fun (p : Programs.t) ->
      if not (Machine.fits machine p.Programs.circuit) then None
      else begin
        let flat = Ir.Decompose.flatten p.Programs.circuit in
        let problem objective = Triq.Placement.problem ~objective reliability flat in
        let run objective = Layout.Bb.solve ~node_budget (problem objective) in
        let max_min = run Layout.Problem.Max_min in
        let product = run Layout.Problem.Product in
        let smt = Layout.Smt_search.solve (problem Layout.Problem.Max_min) in
        Some (p.Programs.name, max_min, product, smt)
      end)
    (benches ())

let print_ablation_mapper (r : run) =
  let cells (r : Layout.Report.t) =
    [
      string_of_int (Layout.Report.work_total r.Layout.Report.work);
      Table.f3 r.Layout.Report.objective;
    ]
  in
  let rows =
    List.map
      (fun (bench, mm, pr, smt) -> (bench :: cells mm) @ cells pr @ cells smt)
      (Lazy.force r.mapper)
  in
  Table.print
    ~title:
      "Ablation: mapping engines (IBMQ16, Sec 4.3) — B&B max-min vs B&B product vs SAT threshold search"
    ~header:
      [ "Benchmark"; "maxmin nodes"; "min rel"; "product nodes"; "min rel";
        "SAT decisions"; "min rel" ]
    rows

(* Peephole ablation: adjacent self-inverse 2Q pairs produced by routing. *)
let peephole_grid () =
  let m = Machines.ibmq14 and peephole = { Config.default with Config.peephole = true } in
  rows_grid two_q
    (rows (benches ())
       [
         ("without", triq m Pipeline.OneQOptCN);
         ("with", triq ~config:peephole m Pipeline.OneQOptCN);
       ])
  |> finish pairs

let print_ablation_peephole (r : run) =
  let data = r.peephole () in
  print_pairs ~title:"Ablation: 2Q peephole cancellation (IBMQ14, TriQ-1QOptCN)"
    ~header:[ "Benchmark"; "2Q without"; "2Q with peephole" ] Fun.id string_of_int data;
  let pairs = List.map (fun (_, w, p) -> (float_of_int w, float_of_int p)) data in
  Printf.printf "geomean 2Q reduction from peephole: %.3fx\n"
    (Stats.geomean_ratio pairs)

(* Larger ion trap with distance-dependent 2Q error: noise adaptivity
   should matter *more* than on the 5-ion UMDTI (Section 6.3's
   projection). *)
let iontrap_programs () =
  [
    Programs.bv 4; Programs.hidden_shift 4; Programs.qft 4; Programs.toffoli;
    Sequences.toffoli 4; Sequences.fredkin 4;
  ]

let iontrap_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () in
  rows_grid success
    (rows (iontrap_programs ())
       (levels ~sim (Machines.ion_trap_chain 13) Pipeline.[ OneQOptC; OneQOptCN ]))

let print_iontrap (r : run) =
  print_gain ~title:"Extension: 13-ion trap with distance-dependent 2Q error (Sec 6.3)"
    "geomean noise-adaptivity gain on the large trap" ~better:"TriQ-1QOptCN"
    ~baseline:"TriQ-1QOptC" (r.iontrap ())

(* Section 8's comparison with Tannu & Qureshi: BV4 on the 5-qubit IBM
   system across six days of differing error conditions. The paper reports
   [65]'s 0.23 vs TriQ's 0.43-0.51 (average 0.47). *)
let tannu_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () and m = Machines.ibmq5 in
  let p = Programs.bv 4 and days = List.init 6 Fun.id in
  rows_grid success
    (List.map
       (fun day ->
         let config = on_day day in
         ( Printf.sprintf "day %d" day,
           [
             ("TriQ-1QOptCN", triq ~config ~sim m Pipeline.OneQOptCN p);
             ("Qiskit", cell ~config ~sim m (Baselines.Qiskit_like.schedule ()) p);
           ] ))
       days)
  |> finish (fun rows -> keyed_pairs (List.combine days rows))

let print_tannu (r : run) =
  let data = r.tannu () in
  print_pairs ~title:"Section 8: BV4 on IBMQ5 across six days (vs noise-unaware)"
    ~header:[ "Day"; "TriQ-1QOptCN"; "Qiskit-like" ] string_of_int Table.f2 data;
  let triq = List.map (fun (_, t, _) -> t) data in
  Printf.printf "TriQ range %.2f-%.2f, average %.2f (paper: 0.43-0.51, avg 0.47)\n"
    (Stats.minimum triq) (Stats.maximum triq) (Stats.mean triq)

(* Pulse-level timing vs coherence (Sections 3.3 and 7): programs consume
   only a small fraction of the coherence window, supporting the paper's
   observation that gate errors, not coherence, limit NISQ programs. *)
let coherence_grid () =
  rows_grid
    (fun compiled _ ->
      let schedule = Pulse.Lower.of_compiled compiled in
      let duration_us = Pulse.Schedule.duration_ns schedule /. 1000.0 in
      let coherence_us =
        compiled.Triq.Compiled.machine.Machine.profile.Calibration.coherence_us
      in
      ( Pulse.Schedule.play_count schedule,
        Pulse.Schedule.frame_change_count schedule,
        duration_us,
        duration_us /. coherence_us,
        1.0 -. compiled.Triq.Compiled.esp ))
    (let column m = (m.Machine.name, triq m Pipeline.OneQOptCN Programs.toffoli) in
     [ ("", List.map column Machines.all) ])
  |> finish (fun rows -> named (List.hd rows))

let print_coherence (r : run) =
  let rows =
    List.map
      (fun (name, (plays, fcs, duration, fraction, gate_err)) ->
        [
          name; string_of_int plays; string_of_int fcs;
          Printf.sprintf "%.1f" duration; Printf.sprintf "%.4f" fraction;
          Table.f2 gate_err;
        ])
      (r.coherence ())
  in
  Table.print
    ~title:"Extension: pulse-level duration vs coherence (Toffoli, TriQ-1QOptCN)"
    ~header:
      [ "Machine"; "Pulses"; "Frame chg"; "Duration (us)"; "T fraction";
        "Accum. gate error" ]
    rows;
  print_endline
    "Gate error dominates the coherence fraction on every machine: the\n\
     paper's observation that NISQ programs are gate-limited, not\n\
     coherence-limited."

(* Characterization closure: randomized-benchmarking the simulated devices
   recovers the calibration error rates the compiler consumes. Rows of
   (machine, injected 1Q, recovered 1Q, injected 2Q, recovered 2Q). *)
let characterize_rows () =
  let f4 = Printf.sprintf "%.4f" in
  Parallel.Pool.map (Parallel.Pool.default ())
    (fun (machine, a, b) ->
      let noise = Sim.Noise.of_day machine ~day:0 in
      let injected_1q = Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, a)) in
      let injected_2q =
        Sim.Noise.gate_error_prob noise (Ir.Gate.Two (Ir.Gate.Cnot, a, b))
      in
      let rb1 = Characterize.Benchmarking.one_qubit machine ~day:0 ~qubit:a in
      let rb2 = Characterize.Benchmarking.two_qubit machine ~day:0 ~a ~b in
      [
        machine.Machine.name;
        f4 injected_1q;
        f4 rb1.Characterize.Benchmarking.error_per_gate;
        f4 injected_2q;
        f4 rb2.Characterize.Benchmarking.error_per_gate;
      ])
    [
      (Machines.ibmq5, 1, 0); (Machines.ibmq14, 1, 0); (Machines.agave, 0, 1);
      (Machines.aspen1, 0, 1); (Machines.umdti, 0, 1);
    ]

let print_characterize (r : run) =
  Table.print
    ~title:"Extension: randomized benchmarking recovers calibration inputs"
    ~header:[ "Machine"; "1Q inj"; "1Q recovered"; "2Q inj"; "2Q recovered" ]
    (Lazy.force r.characterize)

(* Routing ablation: noise-aware mapping with hop-count routing isolates
   the contribution of reliability-path SWAP insertion (Section 4.4). The
   second reliability pass swaps in the device-average matrix, so the
   router follows hop counts while the placement stays noise-aware. *)
let hybrid_routing =
  Baselines.Common.schedule ~name:"TriQ-hybrid"
    Triq.Pass.
      [
        reliability ~noise_aware:true;
        mapping_solver;
        reliability ~noise_aware:false;
        routing Config.Default;
      ]

let routing_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () and m = Machines.ibmq14 in
  rows_grid success
    (rows (benches ())
       [
         ("hop routing", cell ~sim m hybrid_routing);
         ("reliability routing", triq ~sim m Pipeline.OneQOptCN);
       ])
  |> finish (List.filter (fun r -> pair r <> None))

let print_ablation_routing (r : run) =
  print_gain
    ~title:"Ablation: hop-count vs reliability-path routing (IBMQ14, noise-aware mapping)"
    "geomean gain from reliability-path routing" ~better:"reliability routing"
    ~baseline:"hop routing" (r.routing ())

(* Staleness study (Section 7, "the value of recompiling applications to
   account for up-to-date noise data"): an executable compiled against day
   0's calibration, run on later days, vs recompiling each day. *)
let staleness_grid ?trajectories ?(days = 8) () =
  let sim = Sim.Runner.Config.make ?trajectories () and m = Machines.ibmq14 in
  let p = Programs.bv 6 and days = List.init days Fun.id in
  rows_grid success
    (List.map
       (fun day ->
         let stale = { sim with Sim.Runner.Config.day = Some day } in
         ( Printf.sprintf "day %d" day,
           [
             ("stale", triq ~sim:stale m Pipeline.OneQOptCN p);
             ("fresh", triq ~config:(on_day day) ~sim m Pipeline.OneQOptCN p);
           ] ))
       days)
  |> finish (fun rows -> keyed_pairs (List.combine days rows))

let print_staleness (r : run) =
  let data = r.staleness () in
  print_pairs ~title:"Extension: stale executable vs daily recompilation (BV6, IBMQ14)"
    ~header:[ "Day"; "Day-0 executable"; "Recompiled" ] string_of_int Table.f2 data;
  let stale = List.map (fun (_, s, _) -> s) data in
  let fresh = List.map (fun (_, _, f) -> f) data in
  Printf.printf "mean: stale %.3f, recompiled %.3f (%.2fx)\n" (Stats.mean stale)
    (Stats.mean fresh)
    (Stats.mean fresh /. Stats.mean stale)

(* ESP validation: the estimated success probability that drives mapping
   decisions must correlate strongly with measured success across the
   whole study grid — otherwise optimizing it would be pointless. Reads
   Figure 12's cells, machine by machine. *)
let print_esp_correlation (r : run) =
  let grid = r.esp () in
  let data =
    List.concat_map
      (fun m ->
        let name = m.Machine.name in
        List.filter_map
          (fun row ->
            Option.map
              (fun (esp, success) -> (Printf.sprintf "%s/%s" name row.bench, esp, success))
              (List.assoc name row.values))
          grid)
      Machines.all
  in
  let rows =
    List.map (fun (label, esp, success) -> [ label; Table.f3 esp; Table.f3 success ]) data
  in
  Table.print ~title:"Extension: ESP vs measured success (all machines x benchmarks)"
    ~header:[ "Run"; "ESP"; "Measured" ]
    rows;
  let pairs = List.map (fun (_, esp, success) -> (esp, success)) data in
  Printf.printf "Pearson correlation: %.3f over %d runs\n"
    (Stats.correlation pairs) (List.length pairs)

(* Lookahead-routing ablation: score swap paths by the next few 2Q gates
   too, not just the current one. *)
let lookahead_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () and m = Machines.ibmq14 in
  let lookahead = { Config.default with Config.router = Config.Lookahead } in
  rows_grid two_q_success
    (rows (benches ())
       [
         ("default", triq ~sim m Pipeline.OneQOptCN);
         ("lookahead", triq ~config:lookahead ~sim m Pipeline.OneQOptCN);
       ])
  |> finish pairs

let print_ablation_lookahead (r : run) =
  print_two_q_success ~title:"Ablation: default vs lookahead routing (IBMQ14, TriQ-1QOptCN)"
    ~header:[ "Benchmark"; "2Q (default)"; "success"; "2Q (lookahead)"; "success" ]
    "geomean success ratio (lookahead / default)" (r.lookahead ())

(* Headline summary: the paper's reported numbers next to ours, read off
   the run's figure grids — the quantitative core of EXPERIMENTS.md. *)
let summary_rows (r : run) =
  let geo_fig9 machine =
    geomean_improvement ~invert:true (List.assoc machine (r.fig9 ()))
      ~better:"TriQ-1QOpt" ~baseline:"TriQ-N" Fun.id
  in
  let geo_fig10 machine =
    geomean_improvement (List.assoc machine (r.fig10_counts ())) ~better:"TriQ-1QOptC"
      ~baseline:"TriQ-1QOpt" float_of_int
  in
  let geo_quil machine =
    geomean_improvement ~invert:true (List.assoc machine (r.fig11_rigetti ()))
      ~better:"TriQ-1QOptCN" ~baseline:"Quil" Fun.id
  in
  List.map
    (fun (metric, paper, measured) -> [ metric; paper; Printf.sprintf "%.2fx" measured ])
    [
      ("1Q-opt success gain, IBMQ14 (Fig 9)", "1.09x", geo_fig9 "IBMQ14");
      ("1Q-opt success gain, UMDTI (Fig 9)", "1.03x", geo_fig9 "UMDTI");
      ("comm-opt 2Q reduction, IBMQ14 (Fig 10)", "2.1x", geo_fig10 "IBMQ14");
      ("comm-opt 2Q reduction, Agave (Fig 10)", "1.3x", geo_fig10 "Agave");
      ( "TriQ-1QOptCN vs Qiskit, IBMQ14 (Fig 11)", "3.0x",
        geomean_improvement ~invert:true (r.fig11_ibm ()) ~better:"TriQ-1QOptCN"
          ~baseline:"Qiskit" Fun.id );
      ("TriQ-1QOptCN vs Quil, Agave (Fig 11)", "1.45x (both Rigetti)", geo_quil "Agave");
      ("TriQ-1QOptCN vs Quil, Aspen1 (Fig 11)", "1.45x (both Rigetti)", geo_quil "Aspen1");
      ( "2Q reduction vs hop-minimizing mapper (Sec 8)", "1.2x",
        geomean_improvement (r.related ()) ~better:"TriQ-1QOptC" ~baseline:"Zulehner"
          float_of_int );
    ]

let print_summary (r : run) =
  Table.print ~title:"Summary: paper-reported geomeans vs this reproduction"
    ~header:[ "Metric"; "Paper"; "Measured" ] (Lazy.force r.summary)

(* Per-benchmark compiled-executable properties on IBMQ14 and UMDTI: the
   quantities Figures 8-11 are built from, in one table per machine. *)
let properties_grid () =
  Cell.request
    (fun (r : Triq.Compiled.t) _ ->
      [
        string_of_int r.two_q_count;
        string_of_int r.pulse_count;
        string_of_int r.swap_count;
        string_of_int (Ir.Dag.depth (Ir.Dag.of_circuit r.hardware));
        Printf.sprintf "%.2f" (Machine.duration_us r.machine (Ir.Circuit.body r.hardware));
        Table.f3 r.esp;
      ])
    (per_machine [ Machines.ibmq14; Machines.umdti ] (fun m -> [ ("", triq m Pipeline.OneQOptCN) ]))
  |> finish
       (List.map (fun (name, rows) ->
            (name, List.concat_map (fun r -> List.map (fun (_, c) -> r.bench :: c) (named r)) rows)))

let print_properties (r : run) =
  List.iter
    (fun (name, rows) ->
      Table.print
        ~title:(Printf.sprintf "Compiled-executable properties on %s (TriQ-1QOptCN)" name)
        ~header:[ "Benchmark"; "2Q"; "Pulses"; "Swaps"; "Depth"; "Duration us"; "ESP" ]
        rows)
    (r.properties ())

(* Topology projection: the same error profile on IBM's post-2019
   heavy-hex-style layout vs the Melbourne lattice — topology, isolated. *)
let heavyhex_grid ?trajectories () =
  let profile = Machines.ibmq14.Machine.profile in
  let heavy =
    (* A 14-qubit heavy-hex fragment (3 cells), degree <= 3 like IBM's
       post-2019 layouts. *)
    Machine.create ~name:"HeavyHex14" ~basis:Gateset.Ibm_visible
      ~topology:(Topology.heavy_hex 3) ~profile ~seed:1401
  in
  let sim = Sim.Runner.Config.make ?trajectories () in
  rows_grid success
    (rows (benches ())
       [
         ("lattice", triq ~sim Machines.ibmq14 Pipeline.OneQOptCN);
         ("heavy-hex", triq ~sim heavy Pipeline.OneQOptCN);
       ])
  |> finish (List.filter (fun r -> pair r <> None))

let print_heavyhex (r : run) =
  print_gain
    ~title:"Extension: Melbourne lattice vs heavy-hex-style topology (same error profile)"
    "geomean lattice/heavy-hex success ratio" ~better:"lattice" ~baseline:"heavy-hex"
    (r.heavyhex ())

(* Variability panel: BV4 success across ten calibration days on each IBM
   machine — the benchmark-level consequence of Figure 3's error drift. *)
let variability_grid ?trajectories ?(days = 10) () =
  let sim = Sim.Runner.Config.make ?trajectories () and p = Programs.bv 4 in
  Cell.request success
    (List.map
       (fun m ->
         ( m.Machine.name,
           List.init days (fun day ->
               (string_of_int day, [ ("", triq ~config:(on_day day) ~sim m Pipeline.OneQOptCN p) ]))
         ))
       [ Machines.ibmq5; Machines.ibmq14; Machines.ibmq16 ])
  |> finish
       (List.map (fun (name, rows) ->
            ( name,
              List.concat_map
                (fun r -> List.map (fun (_, v) -> Option.value ~default:0.0 v) r.values)
                rows )))

let print_variability (r : run) =
  let data = r.variability () in
  let days = match data with (_, l) :: _ -> List.length l | [] -> 0 in
  let header = "Day" :: List.map fst data in
  let rows =
    List.init days (fun d ->
        string_of_int d
        :: List.map (fun (_, series) -> Table.f2 (List.nth series d)) data)
  in
  Table.print ~title:"Extension: BV4 success across ten calibration days (TriQ-1QOptCN)"
    ~header rows;
  List.iter
    (fun (name, series) ->
      Printf.printf "%s: mean %.2f, min %.2f, max %.2f\n" name (Stats.mean series)
        (Stats.minimum series) (Stats.maximum series))
    data

(* Section 6.4 what-if: exposing Aspen's parametric iSWAP to software.
   SWAPs cost two interactions instead of three, so swap-heavy
   benchmarks gain. *)
let parametric_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () and plain = Machines.aspen1 in
  rows_grid two_q_success
    (rows (benches ())
       [
         ("CZ only", triq ~sim plain Pipeline.OneQOptCN);
         ("+iSWAP", triq ~sim Machines.aspen1_parametric Pipeline.OneQOptCN);
       ])
  |> finish (fun rows ->
         List.map
           (fun (bench, (c2, cs), (p2, ps)) -> (plain.Machine.name, bench, c2, cs, p2, ps))
           (pairs rows))

let print_parametric (r : run) =
  print_two_q_success ~title:"Extension (Sec 6.4): Aspen1 with the parametric iSWAP exposed"
    ~header:[ "Benchmark"; "2Q (CZ only)"; "success"; "2Q (+iSWAP)"; "success" ]
    "geomean success gain from exposing iSWAP"
    (List.map (fun (_, bench, c2, cs, p2, ps) -> (bench, (c2, cs), (p2, ps))) (r.parametric ()))

(* Noise-model ablation: the default folds decoherence into depolarizing
   probability; the explicit model applies amplitude-damping channels. If
   the study's conclusions were sensitive to this choice the substitution
   would be fragile. *)
let noise_model_grid ?trajectories () =
  let sim = Sim.Runner.Config.make ?trajectories () and m = Machines.ibmq14 in
  rows_grid success
    (rows (benches ())
       [
         ("folded", triq ~sim m Pipeline.OneQOptCN);
         ( "explicit T1",
           triq ~sim:{ sim with Sim.Runner.Config.explicit_t1 = true } m Pipeline.OneQOptCN );
       ])
  |> finish pairs

let print_noise_model (r : run) =
  let data = r.noise_model () in
  print_pairs ~title:"Ablation: folded-decoherence vs explicit-T1 noise model (IBMQ14)"
    ~header:[ "Benchmark"; "Folded"; "Explicit T1" ] Fun.id Table.f2 data;
  let diffs = List.map (fun (_, f, e) -> Float.abs (f -. e)) data in
  Printf.printf "max |difference| across benchmarks: %.3f\n" (Stats.maximum diffs)

(* GHZ fidelity via parity oscillations — the standard multi-qubit
   entanglement witness: F = (P_00..0 + P_11..1)/2 + C/2 where C is the
   amplitude of <parity> under a phase rotation applied to every qubit.
   F > 0.5 certifies genuine n-qubit entanglement. *)
let ghz_grid ?trajectories ?(n = 3) () =
  let open Ir.Gate in
  let sim = Sim.Runner.Config.make ?trajectories () and measured = List.init n Fun.id in
  let prep = One (H, 0) :: List.init (n - 1) (fun i -> Two (Cnot, i, i + 1)) in
  let program name gates =
    Programs.custom_distribution ~name ~description:"" ~n gates ~measured
  in
  (* Parity oscillation: rotate every qubit by phi about an equatorial
     axis, measure <X^n parity>; the coherence is the amplitude of the
     cos(n phi) component. *)
  let steps = 2 * n in
  let phis = List.init steps (fun k -> Float.pi *. float_of_int k /. float_of_int steps) in
  let programs =
    program (Printf.sprintf "GHZ%d" n) prep
    :: List.mapi
         (fun k phi ->
           program
             (Printf.sprintf "GHZ%d-parity%d" n k)
             (prep @ List.init n (fun q -> One (Rz phi, q)) @ List.init n (fun q -> One (H, q))))
         phis
  in
  let fidelity z_dist parity_dists =
    (* Populations from the computational-basis run. *)
    let prob bits = Option.value ~default:0.0 (List.assoc_opt bits z_dist) in
    let populations = prob (String.make n '0') +. prob (String.make n '1') in
    (* Amplitude of the cos(n phi) Fourier component. *)
    let coherence =
      2.0
      /. float_of_int steps
      *. Float.abs
           (List.fold_left2
              (fun acc phi dist ->
                acc +. (Sim.Dist.parity_expectation dist measured *. cos (float_of_int n *. phi)))
              0.0 phis parity_dists)
    in
    (populations /. 2.0) +. (coherence /. 2.0)
  in
  Cell.request
    (fun _ o -> (Option.get o).Sim.Runner.distribution)
    (List.map
       (fun m -> (m.Machine.name, rows programs (levels ~sim m Pipeline.[ OneQOptCN ])))
       Machines.all)
  |> finish
       (List.filter_map (fun (name, rows) ->
            (* A machine's cells all fit or none do. *)
            match List.concat_map (fun r -> List.filter_map snd r.values) rows with
            | z_dist :: parity_dists -> Some (name, fidelity z_dist parity_dists)
            | [] -> None))

let print_ghz (r : run) =
  let data = r.ghz () in
  Table.print ~title:"Extension: GHZ3 fidelity via parity oscillations"
    ~header:[ "Machine"; "Fidelity" ]
    (List.map (fun (name, f) -> [ name; Table.f3 f ]) data);
  print_endline "F > 0.5 certifies genuine 3-qubit entanglement."

(* ---------- One run, rendered by every section ---------- *)

type section = { id : string; reads : string list; render : run -> unit }

(* The cell grids the sections read run as one batch; the cell-free grids
   and the summary are computed when a section first forces them. *)
let run ?trajectories sections =
  let reads = List.concat_map (fun s -> s.reads) sections in
  let requests = ref [] in
  let plan name grid =
    let value = ref None in
    if List.mem name reads then requests := grid () (fun v -> value := Some v) :: !requests;
    fun () ->
      match !value with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Experiments.run: grid %s was not planned" name)
  in
  let rec r =
    {
      Report.fig1 = lazy (fig1_rows ());
      fig3 = lazy (fig3_series ());
      fig8 = plan "fig8" fig8_grid;
      fig9 = plan "fig9" (fig9_grid ?trajectories);
      fig10_counts = plan "fig10_counts" fig10_counts_grid;
      fig10_success = plan "fig10_success" (fig10_success_grid ?trajectories);
      fig11_counts = plan "fig11_counts" fig11_counts_grid;
      fig11_ibm = plan "fig11_ibm" (fig11_ibm_grid ?trajectories);
      fig11_rigetti = plan "fig11_rigetti" (fig11_rigetti_grid ?trajectories);
      fig11_sequences = plan "fig11_sequences" (fig11_sequences_grid ?trajectories);
      fig12 = plan "fig12" (fig12_grid ?trajectories);
      esp = plan "esp" (esp_grid ?trajectories);
      scaling = lazy (scaling_rows ());
      related = plan "related" related_grid;
      mapper = lazy (ablation_mapper_data ());
      peephole = plan "peephole" peephole_grid;
      iontrap = plan "iontrap" (iontrap_grid ?trajectories);
      tannu = plan "tannu" (tannu_grid ?trajectories);
      coherence = plan "coherence" coherence_grid;
      characterize = lazy (characterize_rows ());
      routing = plan "routing" (routing_grid ?trajectories);
      staleness = plan "staleness" (staleness_grid ?trajectories ?days:None);
      lookahead = plan "lookahead" (lookahead_grid ?trajectories);
      summary = lazy (summary_rows r);
      properties = plan "properties" properties_grid;
      heavyhex = plan "heavyhex" (heavyhex_grid ?trajectories);
      variability = plan "variability" (variability_grid ?trajectories ?days:None);
      parametric = plan "parametric" (parametric_grid ?trajectories);
      noise_model = plan "noise_model" (noise_model_grid ?trajectories);
      ghz = plan "ghz" (ghz_grid ?trajectories ?n:None);
    }
  in
  Cell.run_batch (List.rev !requests);
  r

let summary_reads = [ "fig9"; "fig10_counts"; "fig11_ibm"; "fig11_rigetti"; "related" ]

let sections =
  List.map
    (fun (id, reads, render) -> { id; reads; render })
    [
      ("fig1", [], print_fig1); ("fig2", [], print_fig2); ("fig3", [], print_fig3);
      ("tab1", [], print_tab1); ("fig5", [], print_fig5); ("fig6", [], print_fig6);
      ("fig7", [], print_fig7); ("fig8", [ "fig8" ], print_fig8); ("fig9", [ "fig9" ], print_fig9);
      ("fig10", [ "fig10_counts"; "fig10_success" ], print_fig10);
      ("fig11", [ "fig11_counts"; "fig11_ibm"; "fig11_rigetti"; "fig11_sequences" ], print_fig11);
      ("fig12", [ "fig12" ], print_fig12); ("scaling", [], print_scaling);
      ("related", [ "related" ], print_related);
      ("ablation", [ "peephole" ], fun r -> print_ablation_mapper r; print_ablation_peephole r);
      ("iontrap", [ "iontrap" ], print_iontrap); ("tannu", [ "tannu" ], print_tannu);
      ("coherence", [ "coherence" ], print_coherence); ("characterize", [], print_characterize);
      ("routing", [ "routing" ], print_ablation_routing);
      ("staleness", [ "staleness" ], print_staleness); ("esp", [ "esp" ], print_esp_correlation);
      ("lookahead", [ "lookahead" ], print_ablation_lookahead);
      ("heavyhex", [ "heavyhex" ], print_heavyhex);
      ("properties", [ "properties" ], print_properties); ("summary", summary_reads, print_summary);
      ( "report",
        [ "fig8"; "fig12"; "iontrap"; "routing" ] @ summary_reads,
        fun r -> print_string (Report.generate r) );
      ("variability", [ "variability" ], print_variability);
      ("parametric", [ "parametric" ], print_parametric);
      ("noisemodel", [ "noise_model" ], print_noise_model); ("ghz", [ "ghz" ], print_ghz);
    ]

(* ---------- One grid alone: the data functions ---------- *)

let fig8_data () = data (fig8_grid ())
let fig9_data ?trajectories () = data (fig9_grid ?trajectories ())
let fig10_counts () = data (fig10_counts_grid ())
let fig10_success ?trajectories () = data (fig10_success_grid ?trajectories ())
let fig11_ibm_success ?trajectories () = data (fig11_ibm_grid ?trajectories ())
let fig11_sequences ?trajectories () = data (fig11_sequences_grid ?trajectories ())
let fig12_data ?trajectories () = data (fig12_grid ?trajectories ())
let related_data () = data (related_grid ())
let ablation_peephole_data () = data (peephole_grid ())
let tannu_data ?trajectories () = data (tannu_grid ?trajectories ())
let staleness_data ?trajectories ?days () = data (staleness_grid ?trajectories ?days ())
let heavyhex_data ?trajectories () = data (heavyhex_grid ?trajectories ())
let variability_data ?trajectories ?days () = data (variability_grid ?trajectories ?days ())
let parametric_data ?trajectories () = data (parametric_grid ?trajectories ())
let noise_model_data ?trajectories () = data (noise_model_grid ?trajectories ())
let ghz_data ?trajectories ?n () = data (ghz_grid ?trajectories ?n ())
