module Machine = Device.Machine
module Machines = Device.Machines
module Calibration = Device.Calibration
module Gateset = Device.Gateset
module Topology = Device.Topology
module Pipeline = Triq.Pipeline
module Config = Triq.Pass.Config
module Schedule = Triq.Pass.Schedule
module Stats = Mathkit.Stats

type 'a row = { bench : string; values : (string * 'a option) list }

(* Grid rows (compile + simulate per benchmark/machine/level/day) are
   independent, so they fan out across the process-wide domain pool.
   Each row's work is self-contained — Runner.simulate seeds its own RNG —
   so every grid below is bit-for-bit identical for any pool size; the
   [-j] flags of bench/main and triqc resize the pool via
   [Parallel.Pool.set_default_jobs]. *)
let pmap f xs = Parallel.Pool.map (Parallel.Pool.default ()) f xs
let pfilter_map f xs = List.filter_map Fun.id (pmap f xs)
let pmap_range n f = pmap f (List.init n Fun.id)

let benches () = Programs.all

(* ---------- sweep-level sharding ---------- *)

let rec split_at n l =
  if n = 0 then ([], l)
  else
    match l with
    | x :: tl ->
      let a, b = split_at (n - 1) tl in
      (x :: a, b)
    | [] -> invalid_arg "Experiments.split_at"

(* Fan a whole (row x column) grid out across the pool as individual
   cells instead of per-row closures: with R rows of C columns the pool
   sees R*C units of work, so a handful of slow cells (a deep benchmark
   on a slow machine) no longer serializes the columns behind its row.
   Cells are enumerated in a deterministic order and regrouped
   row-major, and each cell seeds its own simulation RNG, so the result
   is identical to the nested spelling for every pool size. *)
let grid_rows items ~bench_of ~cols ~cell =
  let cells =
    List.concat_map (fun it -> List.map (fun (_, c) -> (it, c)) cols) items
  in
  let vals = pmap (fun (it, c) -> cell it c) cells in
  let ncols = List.length cols in
  let rec regroup vals = function
    | [] -> []
    | it :: rest ->
      let row_vals, tail = split_at ncols vals in
      {
        bench = bench_of it;
        values = List.map2 (fun (name, _) v -> (name, v)) cols row_vals;
      }
      :: regroup tail rest
  in
  regroup vals items

(* The common machine-major shape: every (machine, benchmark, column)
   cell of a multi-machine figure fans out at once; rows regroup under
   their machine's name afterwards. *)
let machine_grid machines ~cols ~cell =
  let bs = benches () in
  let items = List.concat_map (fun m -> List.map (fun p -> (m, p)) bs) machines in
  let rows =
    grid_rows items
      ~bench_of:(fun (_, p) -> p.Programs.name)
      ~cols
      ~cell:(fun (m, p) c -> cell m c p)
  in
  let nb = List.length bs in
  let rec chunk rows = function
    | [] -> []
    | (m : Machine.t) :: rest ->
      let mine, tail = split_at nb rows in
      (m.Machine.name, mine) :: chunk tail rest
  in
  chunk rows machines

(* Every grid below compiles through the pass driver: a [Config.t] plus
   the level's named schedule, so ablations (peephole, lookahead) are
   config/schedule edits rather than option tuples. *)
let compile_level ?(config = Config.default) ?day machine level circuit =
  let config =
    match day with None -> config | Some day -> { config with Config.day }
  in
  Pipeline.compile_schedule ~config machine circuit (Schedule.of_level ~config level)

(* Compile [p] on [machine] at [level]; None when it does not fit. *)
let try_compile ?config ?day machine level (p : Programs.t) =
  if Machine.fits machine p.Programs.circuit then
    Some (compile_level ?config ?day machine level p.Programs.circuit)
  else None

let try_success ?config ?day ?trajectories machine level p =
  Option.map
    (fun compiled ->
      let outcome =
        Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) (Pipeline.to_compiled compiled) p.Programs.spec
      in
      outcome.Sim.Runner.success_rate)
    (try_compile ?config ?day machine level p)

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

let print_fig1 () =
  Table.print ~title:"Figure 1: device characteristics"
    ~header:
      [ "Machine"; "Qubits"; "2Q couplings"; "T (us)"; "1Q err %"; "2Q err %";
        "RO err %"; "Topology" ]
    (fig1_rows ())

(* ---------- Figure 2 ---------- *)

let fig2_rows () =
  List.map
    (fun basis ->
      [
        Gateset.vendor_name (Gateset.vendor_of_basis basis);
        Gateset.native_description basis;
        Gateset.visible_description basis;
      ])
    [ Gateset.Umd_visible; Gateset.Ibm_visible; Gateset.Rigetti_visible ]

let print_fig2 () =
  Table.print ~title:"Figure 2: native and software-visible gates"
    ~header:[ "Vendor"; "Native gates"; "Software-visible gates" ]
    (fig2_rows ())

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

let print_fig3 () =
  let series = fig3_series () in
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

let tab1_rows () =
  [
    [ "TriQ-N"; "TriQ. No optimization. Default qubit mapping" ];
    [ "TriQ-1QOpt"; "TriQ, 1Q gate optimization. Default qubit mapping" ];
    [ "TriQ-1QOptC"; "TriQ. 1Q opt. Communication-optimized mapping" ];
    [ "TriQ-1QOptCN"; "TriQ. 1Q opt. Comm- and noise-optimized mapping" ];
    [ "Qiskit"; "IBM Qiskit 0.6-style baseline (reimplementation)" ];
    [ "Quil"; "Rigetti Quil 1.9-style baseline (reimplementation)" ];
  ]

let print_tab1 () =
  Table.print ~title:"Table 1: compilers and optimization levels"
    ~header:[ "Compiler"; "Description" ] (tab1_rows ())

(* ---------- Figures 5, 6, 7 ---------- *)

let print_fig5 () =
  let bv4 = Programs.bv 4 in
  Printf.printf "\n== Figure 5: IR for Bernstein-Vazirani (BV4) ==\n%s"
    (Ir.Draw.render bv4.Programs.circuit)

let print_fig6 () =
  let reliability =
    Triq.Reliability.of_calibration ~noise_aware:true
      Machines.example_8q.Machine.topology Machines.example_8q_calibration
  in
  Format.printf "\n== Figure 6: 2Q reliability matrix (example 8-qubit device) ==@\n%a"
    Triq.Reliability.pp reliability

let fig7_rows () =
  List.map
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

let print_fig7 () =
  Table.print ~title:"Figure 7: benchmarks"
    ~header:[ "Benchmark"; "Qubits"; "1Q (IR)"; "2Q (IR)"; "Description" ]
    (fig7_rows ())

(* ---------- Figure 8 ---------- *)

let fig8_machines () = [ Machines.ibmq14; Machines.agave; Machines.umdti ]

let fig8_data () =
  machine_grid (fig8_machines ())
    ~cols:[ ("TriQ-N", Pipeline.N); ("TriQ-1QOpt", Pipeline.OneQOpt) ]
    ~cell:(fun machine level p ->
      Option.map (fun r -> r.Pipeline.pulse_count) (try_compile machine level p))

let row_table (to_string : 'a option -> string) rows =
  match rows with
  | [] -> ([], [])
  | first :: _ ->
    let header = "Benchmark" :: List.map fst first.values in
    let body =
      List.map (fun r -> r.bench :: List.map (fun (_, v) -> to_string v) r.values) rows
    in
    (header, body)

let print_fig8 () =
  List.iter
    (fun (name, rows) ->
      let header, body = row_table Table.opt_int rows in
      Table.print
        ~title:(Printf.sprintf "Figure 8 (%s): native 1Q pulse counts" name)
        ~header body)
    (fig8_data ())

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

(* ---------- Figure 9 ---------- *)

let fig9_data ?trajectories () =
  machine_grid
    [ Machines.ibmq14; Machines.umdti ]
    ~cols:[ ("TriQ-N", Pipeline.N); ("TriQ-1QOpt", Pipeline.OneQOpt) ]
    ~cell:(fun machine level p -> try_success ?trajectories machine level p)

let print_fig9 ?trajectories () =
  List.iter
    (fun (name, rows) ->
      let header, body = row_table Table.opt_f2 rows in
      Table.print
        ~title:(Printf.sprintf "Figure 9 (%s): success rate, TriQ-N vs TriQ-1QOpt" name)
        ~header body;
      Printf.printf "geomean improvement (1QOpt over N): %.2fx\n"
        (geomean_improvement ~invert:true rows ~better:"TriQ-1QOpt" ~baseline:"TriQ-N"
           Fun.id))
    (fig9_data ?trajectories ())

(* ---------- Figure 10 ---------- *)

let fig10_counts () =
  machine_grid
    [ Machines.ibmq14; Machines.agave ]
    ~cols:[ ("TriQ-1QOpt", Pipeline.OneQOpt); ("TriQ-1QOptC", Pipeline.OneQOptC) ]
    ~cell:(fun machine level p ->
      Option.map (fun r -> r.Pipeline.two_q_count) (try_compile machine level p))

let fig10_success ?trajectories () =
  let machine = Machines.ibmq14 in
  grid_rows (benches ())
    ~bench_of:(fun (p : Programs.t) -> p.Programs.name)
    ~cols:[ ("TriQ-1QOpt", Pipeline.OneQOpt); ("TriQ-1QOptC", Pipeline.OneQOptC) ]
    ~cell:(fun p level -> try_success ?trajectories machine level p)

let print_fig10 ?trajectories () =
  List.iter
    (fun (name, rows) ->
      let header, body = row_table Table.opt_int rows in
      Table.print
        ~title:(Printf.sprintf "Figure 10 (%s): 2Q gate count, +-comm. opt" name)
        ~header body;
      Printf.printf "geomean 2Q reduction: %.2fx\n"
        (geomean_improvement rows ~better:"TriQ-1QOptC" ~baseline:"TriQ-1QOpt"
           float_of_int))
    (fig10_counts ());
  let rows = fig10_success ?trajectories () in
  let header, body = row_table Table.opt_f2 rows in
  Table.print ~title:"Figure 10c (IBMQ14): success rate, +-comm. opt" ~header body

(* ---------- Figure 11 ---------- *)

let compile_with_baseline ?day machine which (p : Programs.t) =
  if not (Machine.fits machine p.Programs.circuit) then None
  else
    Some
      (match which with
      | `Qiskit -> Baselines.Qiskit_like.compile ?day machine p.Programs.circuit
      | `Quil -> Baselines.Quil_like.compile ?day machine p.Programs.circuit
      | `Zulehner -> Baselines.Zulehner_like.compile ?day machine p.Programs.circuit)

let baseline_success ?day ?trajectories machine which p =
  Option.map
    (fun compiled ->
      (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) compiled p.Programs.spec).Sim.Runner.success_rate)
    (compile_with_baseline ?day machine which p)

let fig11_counts () =
  let machine = Machines.ibmq14 in
  grid_rows (benches ())
    ~bench_of:(fun (p : Programs.t) -> p.Programs.name)
    ~cols:
      [
        ("Qiskit", `Qiskit);
        ("TriQ-1QOptC", `Level Pipeline.OneQOptC);
        ("TriQ-1QOptCN", `Level Pipeline.OneQOptCN);
      ]
    ~cell:(fun p -> function
      | `Qiskit ->
        Option.map
          (fun c -> c.Triq.Compiled.two_q_count)
          (compile_with_baseline machine `Qiskit p)
      | `Level level ->
        Option.map (fun r -> r.Pipeline.two_q_count) (try_compile machine level p))

let fig11_ibm_success ?trajectories () =
  let machine = Machines.ibmq14 in
  grid_rows (benches ())
    ~bench_of:(fun (p : Programs.t) -> p.Programs.name)
    ~cols:
      [
        ("Qiskit", `Qiskit);
        ("TriQ-1QOptC", `Level Pipeline.OneQOptC);
        ("TriQ-1QOptCN", `Level Pipeline.OneQOptCN);
      ]
    ~cell:(fun p -> function
      | `Qiskit -> baseline_success ?trajectories machine `Qiskit p
      | `Level level -> try_success ?trajectories machine level p)

let fig11_rigetti_success ?trajectories () =
  machine_grid
    [ Machines.agave; Machines.aspen1 ]
    ~cols:[ ("Quil", `Quil); ("TriQ-1QOptCN", `Level Pipeline.OneQOptCN) ]
    ~cell:(fun machine col p ->
      match col with
      | `Quil -> baseline_success ?trajectories machine `Quil p
      | `Level level -> try_success ?trajectories machine level p)

let fig11_sequences ?trajectories () =
  let machine = Machines.umdti in
  let series name programs =
    ( name,
      grid_rows programs
        ~bench_of:(fun (p : Programs.t) -> p.Programs.name)
        ~cols:
          [ ("TriQ-1QOptC", Pipeline.OneQOptC); ("TriQ-1QOptCN", Pipeline.OneQOptCN) ]
        ~cell:(fun p level -> try_success ?trajectories machine level p) )
  in
  [
    series "Toffoli sequence" (List.init 8 (fun i -> Sequences.toffoli (i + 1)));
    series "Fredkin sequence" (List.init 7 (fun i -> Sequences.fredkin (i + 1)));
  ]

let print_fig11 ?trajectories () =
  let counts = fig11_counts () in
  let header, body = row_table Table.opt_int counts in
  Table.print ~title:"Figure 11a (IBMQ14): 2Q gate count vs Qiskit" ~header body;
  let ibm = fig11_ibm_success ?trajectories () in
  let header, body = row_table Table.opt_f2 ibm in
  Table.print ~title:"Figure 11b (IBMQ14): success rate vs Qiskit" ~header body;
  Printf.printf "geomean improvement over Qiskit: %.2fx\n"
    (geomean_improvement ~invert:true ibm ~better:"TriQ-1QOptCN" ~baseline:"Qiskit" Fun.id);
  List.iter
    (fun (name, rows) ->
      let header, body = row_table Table.opt_f2 rows in
      Table.print
        ~title:(Printf.sprintf "Figure 11c/d (%s): success rate vs Quil" name)
        ~header body;
      Printf.printf "geomean improvement over Quil: %.2fx\n"
        (geomean_improvement ~invert:true rows ~better:"TriQ-1QOptCN" ~baseline:"Quil"
           Fun.id))
    (fig11_rigetti_success ?trajectories ());
  List.iter
    (fun (name, rows) ->
      let header, body = row_table Table.opt_f2 rows in
      Table.print
        ~title:(Printf.sprintf "Figure 11e/f (UMDTI): %s, +-noise adaptivity" name)
        ~header body)
    (fig11_sequences ?trajectories ())

(* ---------- Figure 12 ---------- *)

let fig12_data ?trajectories () =
  grid_rows (benches ())
    ~bench_of:(fun (p : Programs.t) -> p.Programs.name)
    ~cols:(List.map (fun m -> (m.Machine.name, m)) Machines.all)
    ~cell:(fun p machine -> try_success ?trajectories machine Pipeline.OneQOptCN p)

let print_fig12 ?trajectories () =
  let rows = fig12_data ?trajectories () in
  let header, body = row_table Table.opt_f2 rows in
  Table.print ~title:"Figure 12: success rate, 12 benchmarks x 7 systems (TriQ-1QOptCN)"
    ~header body

(* ---------- Scaling (Section 6.5) ---------- *)

let scaling_grids depth =
  [
    (4, 4, depth); (5, 5, depth); (6, 6, depth); (6, 9, depth); (6, 12, depth);
    (* The paper's largest configuration: 72 qubits, depth 128,
       ~2000 two-qubit gates. *)
    (6, 12, 128);
  ]

let scaling_data ?(node_budget = 20_000) ?(depth = 16) () =
  pmap
    (fun (rows, cols, depth) ->
      let n = rows * cols in
      let machine = Machines.bristlecone rows cols in
      let circuit = Supremacy.circuit ~seed:(1000 + n) ~rows ~cols ~depth in
      let config = Config.make ~node_budget () in
      let compiled = compile_level ~config machine Pipeline.OneQOptCN circuit in
      ( Printf.sprintf "%dx%d d%d" rows cols depth,
        n,
        compiled.Pipeline.two_q_count,
        compiled.Pipeline.compile_time_s ))
    (scaling_grids depth)

let print_scaling ?node_budget ?depth () =
  let rows =
    List.map
      (fun (label, n, twoq, secs) ->
        [ label; string_of_int n; string_of_int twoq; Printf.sprintf "%.2f" secs ])
      (scaling_data ?node_budget ?depth ())
  in
  Table.print ~title:"Section 6.5: compile-time scaling on supremacy circuits"
    ~header:[ "Grid"; "Qubits"; "2Q gates (mapped)"; "Compile time (s)" ]
    rows

(* ---------- Related work (Section 8) ---------- *)

let related_data () =
  let machine = Machines.ibmq16 in
  pmap
    (fun (p : Programs.t) ->
      let zulehner =
        Option.map
          (fun c -> c.Triq.Compiled.two_q_count)
          (compile_with_baseline machine `Zulehner p)
      in
      let triq =
        Option.map
          (fun r -> r.Pipeline.two_q_count)
          (try_compile machine Pipeline.OneQOptC p)
      in
      {
        bench = p.Programs.name;
        values = [ ("Zulehner", zulehner); ("TriQ-1QOptC", triq) ];
      })
    (benches ())

let print_related () =
  let rows = related_data () in
  let header, body = row_table Table.opt_int rows in
  Table.print ~title:"Section 8: 2Q count, hop-minimizing mapper vs TriQ (IBMQ16)"
    ~header body;
  Printf.printf "geomean 2Q reduction over Zulehner-style mapper: %.2fx\n"
    (geomean_improvement rows ~better:"TriQ-1QOptC" ~baseline:"Zulehner" float_of_int)

let run_all ?trajectories () =
  print_fig1 ();
  print_fig2 ();
  print_fig3 ();
  print_tab1 ();
  print_fig5 ();
  print_fig6 ();
  print_fig7 ();
  print_fig8 ();
  print_fig9 ?trajectories ();
  print_fig10 ?trajectories ();
  print_fig11 ?trajectories ();
  print_fig12 ?trajectories ();
  print_scaling ();
  print_related ()

(* ---------- Extensions beyond the paper's figures ---------- *)

(* Mapper-objective ablation (Section 4.3's scalability argument): the
   max-min objective prunes far earlier than the whole-graph product
   objective, at equal or better mapped quality. Runs the layout engines
   directly, bypassing the placement cache. *)
let ablation_mapper_data ?(node_budget = 200_000) () =
  let machine = Machines.ibmq16 in
  let calibration = Machine.calibration machine ~day:0 in
  let reliability = Triq.Reliability.compute ~noise_aware:true machine calibration in
  pfilter_map
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

let print_ablation_mapper () =
  let cells (r : Layout.Report.t) =
    [
      string_of_int (Layout.Report.work_total r.Layout.Report.work);
      Table.f3 r.Layout.Report.objective;
    ]
  in
  let rows =
    List.map
      (fun (bench, mm, pr, smt) -> (bench :: cells mm) @ cells pr @ cells smt)
      (ablation_mapper_data ())
  in
  Table.print
    ~title:
      "Ablation: mapping engines (IBMQ16, Sec 4.3) — B&B max-min vs B&B product vs SAT threshold search"
    ~header:
      [ "Benchmark"; "maxmin nodes"; "min rel"; "product nodes"; "min rel";
        "SAT decisions"; "min rel" ]
    rows

(* Peephole ablation: adjacent self-inverse 2Q pairs produced by routing. *)
let ablation_peephole_data () =
  let machine = Machines.ibmq14 in
  pfilter_map
    (fun (p : Programs.t) ->
      if not (Machine.fits machine p.Programs.circuit) then None
      else begin
        let two_q config =
          (compile_level ~config machine Pipeline.OneQOptCN p.Programs.circuit)
            .Pipeline.two_q_count
        in
        Some
          ( p.Programs.name,
            two_q Config.default,
            two_q { Config.default with Config.peephole = true } )
      end)
    (benches ())

let print_ablation_peephole () =
  let data = ablation_peephole_data () in
  let rows =
    List.map
      (fun (bench, without, with_) ->
        [ bench; string_of_int without; string_of_int with_ ])
      data
  in
  Table.print ~title:"Ablation: 2Q peephole cancellation (IBMQ14, TriQ-1QOptCN)"
    ~header:[ "Benchmark"; "2Q without"; "2Q with peephole" ]
    rows;
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

let iontrap_data ?trajectories ?(ions = 13) () =
  let machine = Machines.ion_trap_chain ions in
  pmap
    (fun (p : Programs.t) ->
      {
        bench = p.Programs.name;
        values =
          [
            ("TriQ-1QOptC", try_success ?trajectories machine Pipeline.OneQOptC p);
            ("TriQ-1QOptCN", try_success ?trajectories machine Pipeline.OneQOptCN p);
          ];
      })
    (iontrap_programs ())

let print_iontrap ?trajectories () =
  let rows = iontrap_data ?trajectories () in
  let header, body = row_table Table.opt_f2 rows in
  Table.print
    ~title:"Extension: 13-ion trap with distance-dependent 2Q error (Sec 6.3)"
    ~header body;
  Printf.printf "geomean noise-adaptivity gain on the large trap: %.2fx\n"
    (geomean_improvement ~invert:true rows ~better:"TriQ-1QOptCN"
       ~baseline:"TriQ-1QOptC" Fun.id)

(* Section 8's comparison with Tannu & Qureshi: BV4 on the 5-qubit IBM
   system across six days of differing error conditions. The paper reports
   [65]'s 0.23 vs TriQ's 0.43-0.51 (average 0.47). *)
let tannu_data ?trajectories () =
  let machine = Machines.ibmq5 in
  let p = Programs.bv 4 in
  pmap
    (fun day ->
      let triq = try_success ~day ?trajectories machine Pipeline.OneQOptCN p in
      let qiskit = baseline_success ~day ?trajectories machine `Qiskit p in
      (day, Option.value ~default:0.0 triq, Option.value ~default:0.0 qiskit))
    [ 0; 1; 2; 3; 4; 5 ]

let print_tannu ?trajectories () =
  let data = tannu_data ?trajectories () in
  let rows =
    List.map
      (fun (day, triq, qiskit) ->
        [ string_of_int day; Table.f2 triq; Table.f2 qiskit ])
      data
  in
  Table.print ~title:"Section 8: BV4 on IBMQ5 across six days (vs noise-unaware)"
    ~header:[ "Day"; "TriQ-1QOptCN"; "Qiskit-like" ]
    rows;
  let triq = List.map (fun (_, t, _) -> t) data in
  Printf.printf "TriQ range %.2f-%.2f, average %.2f (paper: 0.43-0.51, avg 0.47)\n"
    (Stats.minimum triq) (Stats.maximum triq) (Stats.mean triq)

let run_extensions ?trajectories () =
  print_ablation_mapper ();
  print_ablation_peephole ();
  print_iontrap ?trajectories ();
  print_tannu ?trajectories ()

(* Pulse-level timing vs coherence (Sections 3.3 and 7): programs consume
   only a small fraction of the coherence window, supporting the paper's
   observation that gate errors, not coherence, limit NISQ programs. *)
let coherence_data () =
  let p = Programs.toffoli in
  pmap
    (fun machine ->
      let compiled =
        Pipeline.to_compiled
          (compile_level machine Pipeline.OneQOptCN p.Programs.circuit)
      in
      let schedule = Pulse.Lower.of_compiled compiled in
      let duration_us = Pulse.Schedule.duration_ns schedule /. 1000.0 in
      let coherence_us = machine.Machine.profile.Calibration.coherence_us in
      ( machine.Machine.name,
        Pulse.Schedule.play_count schedule,
        Pulse.Schedule.frame_change_count schedule,
        duration_us,
        duration_us /. coherence_us,
        1.0 -. compiled.Triq.Compiled.esp ))
    Machines.all

let print_coherence () =
  let rows =
    List.map
      (fun (name, plays, fcs, duration, fraction, gate_err) ->
        [
          name; string_of_int plays; string_of_int fcs;
          Printf.sprintf "%.1f" duration; Printf.sprintf "%.4f" fraction;
          Table.f2 gate_err;
        ])
      (coherence_data ())
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
   recovers the calibration error rates the compiler consumes. *)
let characterize_data () =
  pmap
    (fun (machine, a, b) ->
      let calibration = Machine.calibration machine ~day:0 in
      let noise = Sim.Noise.create machine calibration in
      let injected_1q = Sim.Noise.gate_error_prob noise (Ir.Gate.One (Ir.Gate.X, a)) in
      let injected_2q =
        Sim.Noise.gate_error_prob noise (Ir.Gate.Two (Ir.Gate.Cnot, a, b))
      in
      let rb1 = Characterize.Benchmarking.one_qubit machine ~day:0 ~qubit:a in
      let rb2 = Characterize.Benchmarking.two_qubit machine ~day:0 ~a ~b in
      ( machine.Machine.name,
        injected_1q,
        rb1.Characterize.Benchmarking.error_per_gate,
        injected_2q,
        rb2.Characterize.Benchmarking.error_per_gate ))
    [
      (Machines.ibmq5, 1, 0); (Machines.ibmq14, 1, 0); (Machines.agave, 0, 1);
      (Machines.aspen1, 0, 1); (Machines.umdti, 0, 1);
    ]

let print_characterize () =
  let rows =
    List.map
      (fun (name, i1, r1, i2, r2) ->
        [
          name;
          Printf.sprintf "%.4f" i1; Printf.sprintf "%.4f" r1;
          Printf.sprintf "%.4f" i2; Printf.sprintf "%.4f" r2;
        ])
      (characterize_data ())
  in
  Table.print
    ~title:"Extension: randomized benchmarking recovers calibration inputs"
    ~header:[ "Machine"; "1Q inj"; "1Q recovered"; "2Q inj"; "2Q recovered" ]
    rows

(* Routing ablation: noise-aware mapping with hop-count routing isolates
   the contribution of reliability-path SWAP insertion (Section 4.4). *)
let hybrid_routing_compile ?(day = 0) machine (p : Programs.t) =
  let started_at = Sys.time () in
  let state, front_times = Baselines.Common.start machine ~day p.Programs.circuit in
  let flat = state.Triq.Pass.circuit in
  let calibration = state.Triq.Pass.calibration in
  let aware =
    Triq.Reliability.compute_cached ~noise_aware:true ~calibration machine ~day
  in
  let unaware =
    Triq.Reliability.compute_cached ~noise_aware:false ~calibration machine ~day
  in
  let placement =
    (Triq.Placement.solve ~reliability:aware ~machine_name:machine.Machine.name
       ~day flat)
      .Layout.Report.placement
  in
  let routed = Triq.Router.route unaware machine.Machine.topology ~placement flat in
  Baselines.Common.finalize ~compiler:"TriQ-hybrid" ~routed:routed.Triq.Router.circuit
    ~initial_placement:placement ~final_placement:routed.Triq.Router.final_placement
    ~swap_count:routed.Triq.Router.swap_count ~started_at ~front_times state

let ablation_routing_data ?trajectories () =
  let machine = Machines.ibmq14 in
  pfilter_map
    (fun (p : Programs.t) ->
      if not (Machine.fits machine p.Programs.circuit) then None
      else begin
        let full = try_success ?trajectories machine Pipeline.OneQOptCN p in
        let hybrid =
          (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) (hybrid_routing_compile machine p)
             p.Programs.spec).Sim.Runner.success_rate
        in
        Some
          {
            bench = p.Programs.name;
            values = [ ("hop routing", Some hybrid); ("reliability routing", full) ];
          }
      end)
    (benches ())

let print_ablation_routing ?trajectories () =
  let rows = ablation_routing_data ?trajectories () in
  let header, body = row_table Table.opt_f2 rows in
  Table.print
    ~title:"Ablation: hop-count vs reliability-path routing (IBMQ14, noise-aware mapping)"
    ~header body;
  Printf.printf "geomean gain from reliability-path routing: %.2fx\n"
    (geomean_improvement ~invert:true rows ~better:"reliability routing"
       ~baseline:"hop routing" Fun.id)

(* Staleness study (Section 7, "the value of recompiling applications to
   account for up-to-date noise data"): an executable compiled against day
   0's calibration, run on later days, vs recompiling each day. *)
let staleness_data ?trajectories ?(days = 8) () =
  let machine = Machines.ibmq14 in
  let p = Programs.bv 6 in
  let stale_exe =
    Pipeline.to_compiled
      (compile_level ~day:0 machine Pipeline.OneQOptCN p.Programs.circuit)
  in
  pmap_range days (fun day ->
      let stale =
        (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ~day ()) stale_exe p.Programs.spec)
          .Sim.Runner.success_rate
      in
      let fresh =
        (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ())
           (Pipeline.to_compiled
              (compile_level ~day machine Pipeline.OneQOptCN p.Programs.circuit))
           p.Programs.spec)
          .Sim.Runner.success_rate
      in
      (day, stale, fresh))

let print_staleness ?trajectories () =
  let data = staleness_data ?trajectories () in
  let rows =
    List.map
      (fun (day, stale, fresh) ->
        [ string_of_int day; Table.f2 stale; Table.f2 fresh ])
      data
  in
  Table.print
    ~title:"Extension: stale executable vs daily recompilation (BV6, IBMQ14)"
    ~header:[ "Day"; "Day-0 executable"; "Recompiled" ]
    rows;
  let stale = List.map (fun (_, s, _) -> s) data in
  let fresh = List.map (fun (_, _, f) -> f) data in
  Printf.printf "mean: stale %.3f, recompiled %.3f (%.2fx)\n" (Stats.mean stale)
    (Stats.mean fresh)
    (Stats.mean fresh /. Stats.mean stale)

(* ESP validation: the estimated success probability that drives mapping
   decisions must correlate strongly with measured success across the
   whole study grid — otherwise optimizing it would be pointless. *)
let esp_correlation_data ?trajectories () =
  (* One flat (machine x benchmark) cell list: the whole study grid
     fans out across the pool at once. *)
  pfilter_map
    (fun (machine, (p : Programs.t)) ->
      Option.map
        (fun compiled ->
          let success =
            (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) (Pipeline.to_compiled compiled)
               p.Programs.spec)
              .Sim.Runner.success_rate
          in
          ( Printf.sprintf "%s/%s" machine.Machine.name p.Programs.name,
            compiled.Pipeline.esp,
            success ))
        (try_compile machine Pipeline.OneQOptCN p))
    (List.concat_map
       (fun machine -> List.map (fun p -> (machine, p)) (benches ()))
       Machines.all)

let print_esp_correlation ?trajectories () =
  let data = esp_correlation_data ?trajectories () in
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
let ablation_lookahead_data ?trajectories () =
  let machine = Machines.ibmq14 in
  pfilter_map
    (fun (p : Programs.t) ->
      if not (Machine.fits machine p.Programs.circuit) then None
      else begin
        let run router =
          let config = { Config.default with Config.router } in
          let compiled =
            compile_level ~config machine Pipeline.OneQOptCN p.Programs.circuit
          in
          ( compiled.Pipeline.two_q_count,
            (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) (Pipeline.to_compiled compiled)
               p.Programs.spec)
              .Sim.Runner.success_rate )
        in
        let d2, ds = run Config.Default in
        let l2, ls = run Config.Lookahead in
        Some (p.Programs.name, d2, ds, l2, ls)
      end)
    (benches ())

let print_ablation_lookahead ?trajectories () =
  let data = ablation_lookahead_data ?trajectories () in
  let rows =
    List.map
      (fun (bench, d2, ds, l2, ls) ->
        [ bench; string_of_int d2; Table.f2 ds; string_of_int l2; Table.f2 ls ])
      data
  in
  Table.print
    ~title:"Ablation: default vs lookahead routing (IBMQ14, TriQ-1QOptCN)"
    ~header:[ "Benchmark"; "2Q (default)"; "success"; "2Q (lookahead)"; "success" ]
    rows;
  let pairs = List.map (fun (_, _, ds, _, ls) -> (ls, ds)) data in
  Printf.printf "geomean success ratio (lookahead / default): %.3fx\n"
    (Stats.geomean_ratio pairs)

(* Headline summary: the paper's reported numbers next to ours, computed
   live — the quantitative core of EXPERIMENTS.md. *)
let summary_data ?trajectories () =
  let fig9 = fig9_data ?trajectories () in
  let geo_fig9 machine =
    geomean_improvement ~invert:true (List.assoc machine fig9) ~better:"TriQ-1QOpt"
      ~baseline:"TriQ-N" Fun.id
  in
  let fig10 = fig10_counts () in
  let geo_fig10 machine =
    geomean_improvement (List.assoc machine fig10) ~better:"TriQ-1QOptC"
      ~baseline:"TriQ-1QOpt" float_of_int
  in
  let fig11b = fig11_ibm_success ?trajectories () in
  let quil = fig11_rigetti_success ?trajectories () in
  let geo_quil machine =
    geomean_improvement ~invert:true (List.assoc machine quil) ~better:"TriQ-1QOptCN"
      ~baseline:"Quil" Fun.id
  in
  let related = related_data () in
  [
    ("1Q-opt success gain, IBMQ14 (Fig 9)", "1.09x", Printf.sprintf "%.2fx" (geo_fig9 "IBMQ14"));
    ("1Q-opt success gain, UMDTI (Fig 9)", "1.03x", Printf.sprintf "%.2fx" (geo_fig9 "UMDTI"));
    ("comm-opt 2Q reduction, IBMQ14 (Fig 10)", "2.1x", Printf.sprintf "%.2fx" (geo_fig10 "IBMQ14"));
    ("comm-opt 2Q reduction, Agave (Fig 10)", "1.3x", Printf.sprintf "%.2fx" (geo_fig10 "Agave"));
    ( "TriQ-1QOptCN vs Qiskit, IBMQ14 (Fig 11)",
      "3.0x",
      Printf.sprintf "%.2fx"
        (geomean_improvement ~invert:true fig11b ~better:"TriQ-1QOptCN"
           ~baseline:"Qiskit" Fun.id) );
    ("TriQ-1QOptCN vs Quil, Agave (Fig 11)", "1.45x (both Rigetti)",
     Printf.sprintf "%.2fx" (geo_quil "Agave"));
    ("TriQ-1QOptCN vs Quil, Aspen1 (Fig 11)", "1.45x (both Rigetti)",
     Printf.sprintf "%.2fx" (geo_quil "Aspen1"));
    ( "2Q reduction vs hop-minimizing mapper (Sec 8)",
      "1.2x",
      Printf.sprintf "%.2fx"
        (geomean_improvement related ~better:"TriQ-1QOptC" ~baseline:"Zulehner"
           float_of_int) );
  ]

let print_summary ?trajectories () =
  let rows =
    List.map (fun (metric, paper, ours) -> [ metric; paper; ours ])
      (summary_data ?trajectories ())
  in
  Table.print ~title:"Summary: paper-reported geomeans vs this reproduction"
    ~header:[ "Metric"; "Paper"; "Measured" ] rows

(* Per-benchmark compiled-executable properties on one machine: the
   quantities Figures 8-11 are built from, in one table. *)
let properties_rows machine =
  List.filter_map
    (fun (p : Programs.t) ->
      Option.map
        (fun r ->
          let dag = Ir.Dag.of_circuit r.Pipeline.hardware in
          [
            p.Programs.name;
            string_of_int r.Pipeline.two_q_count;
            string_of_int r.Pipeline.pulse_count;
            string_of_int r.Pipeline.swap_count;
            string_of_int (Ir.Dag.depth dag);
            Printf.sprintf "%.2f" (Machine.duration_us machine (Ir.Circuit.body r.Pipeline.hardware));
            Table.f3 r.Pipeline.esp;
          ])
        (try_compile machine Pipeline.OneQOptCN p))
    (benches ())

let print_properties machine =
  Table.print
    ~title:
      (Printf.sprintf "Compiled-executable properties on %s (TriQ-1QOptCN)"
         machine.Machine.name)
    ~header:[ "Benchmark"; "2Q"; "Pulses"; "Swaps"; "Depth"; "Duration us"; "ESP" ]
    (properties_rows machine)

(* Topology projection: the same error profile on IBM's post-2019
   heavy-hex-style layout vs the Melbourne lattice — topology, isolated. *)
let heavyhex_data ?trajectories () =
  let profile = Machines.ibmq14.Machine.profile in
  let heavy =
    (* A 14-qubit heavy-hex fragment (3 cells), degree <= 3 like IBM's
       post-2019 layouts. *)
    Machine.create ~name:"HeavyHex14" ~basis:Gateset.Ibm_visible
      ~topology:(Topology.heavy_hex 3) ~profile ~seed:1401
  in
  pfilter_map
    (fun (p : Programs.t) ->
      match (try_success ?trajectories Machines.ibmq14 Pipeline.OneQOptCN p,
             try_success ?trajectories heavy Pipeline.OneQOptCN p) with
      | Some lattice, Some hex ->
        Some { bench = p.Programs.name; values = [ ("lattice", Some lattice); ("heavy-hex", Some hex) ] }
      | _ -> None)
    (benches ())

let print_heavyhex ?trajectories () =
  let rows = heavyhex_data ?trajectories () in
  let header, body = row_table Table.opt_f2 rows in
  Table.print
    ~title:"Extension: Melbourne lattice vs heavy-hex-style topology (same error profile)"
    ~header body;
  Printf.printf "geomean lattice/heavy-hex success ratio: %.2fx\n"
    (geomean_improvement ~invert:true rows ~better:"lattice" ~baseline:"heavy-hex" Fun.id)

(* Variability panel: BV4 success across ten calibration days on each IBM
   machine — the benchmark-level consequence of Figure 3's error drift. *)
let variability_data ?trajectories ?(days = 10) () =
  let machines = [ Machines.ibmq5; Machines.ibmq14; Machines.ibmq16 ] in
  let p = Programs.bv 4 in
  (* Shard the full (machine x day) grid, then regroup per machine. *)
  let vals =
    pmap
      (fun (machine, day) ->
        Option.value ~default:0.0
          (try_success ~day ?trajectories machine Pipeline.OneQOptCN p))
      (List.concat_map
         (fun m -> List.init days (fun day -> (m, day)))
         machines)
  in
  let rec chunk vals = function
    | [] -> []
    | (m : Machine.t) :: rest ->
      let mine, tail = split_at days vals in
      (m.Machine.name, mine) :: chunk tail rest
  in
  chunk vals machines

let print_variability ?trajectories () =
  let data = variability_data ?trajectories () in
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
let parametric_data ?trajectories () =
  List.concat_map
    (fun (plain, parametric) ->
      pfilter_map
        (fun (p : Programs.t) ->
          if not (Machine.fits plain p.Programs.circuit) then None
          else begin
            let run machine =
              let compiled =
                compile_level machine Pipeline.OneQOptCN p.Programs.circuit
              in
              ( compiled.Pipeline.two_q_count,
                (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) (Pipeline.to_compiled compiled)
                   p.Programs.spec)
                  .Sim.Runner.success_rate )
            in
            let c2, cs = run plain in
            let p2, ps = run parametric in
            Some (plain.Machine.name, p.Programs.name, c2, cs, p2, ps)
          end)
        (benches ()))
    [ (Machines.aspen1, Machines.aspen1_parametric) ]

let print_parametric ?trajectories () =
  let data = parametric_data ?trajectories () in
  let rows =
    List.map
      (fun (_, bench, c2, cs, p2, ps) ->
        [ bench; string_of_int c2; Table.f2 cs; string_of_int p2; Table.f2 ps ])
      data
  in
  Table.print
    ~title:"Extension (Sec 6.4): Aspen1 with the parametric iSWAP exposed"
    ~header:[ "Benchmark"; "2Q (CZ only)"; "success"; "2Q (+iSWAP)"; "success" ]
    rows;
  let pairs = List.map (fun (_, _, _, cs, _, ps) -> (ps, cs)) data in
  Printf.printf "geomean success gain from exposing iSWAP: %.3fx\n"
    (Stats.geomean_ratio pairs)

(* Noise-model ablation: the default folds decoherence into depolarizing
   probability; the explicit model applies amplitude-damping channels. If
   the study's conclusions were sensitive to this choice the substitution
   would be fragile. *)
let noise_model_data ?trajectories () =
  let machine = Machines.ibmq14 in
  pfilter_map
    (fun (p : Programs.t) ->
      if not (Machine.fits machine p.Programs.circuit) then None
      else begin
        let compiled =
          Pipeline.to_compiled
            (compile_level machine Pipeline.OneQOptCN p.Programs.circuit)
        in
        let folded =
          (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) compiled p.Programs.spec).Sim.Runner.success_rate
        in
        let explicit =
          (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ~explicit_t1:true ()) compiled p.Programs.spec)
            .Sim.Runner.success_rate
        in
        Some (p.Programs.name, folded, explicit)
      end)
    (benches ())

let print_noise_model ?trajectories () =
  let data = noise_model_data ?trajectories () in
  let rows =
    List.map
      (fun (bench, folded, explicit) -> [ bench; Table.f2 folded; Table.f2 explicit ])
      data
  in
  Table.print
    ~title:"Ablation: folded-decoherence vs explicit-T1 noise model (IBMQ14)"
    ~header:[ "Benchmark"; "Folded"; "Explicit T1" ]
    rows;
  let diffs = List.map (fun (_, f, e) -> Float.abs (f -. e)) data in
  Printf.printf "max |difference| across benchmarks: %.3f\n" (Stats.maximum diffs)

(* GHZ fidelity via parity oscillations — the standard multi-qubit
   entanglement witness: F = (P_00..0 + P_11..1)/2 + C/2 where C is the
   amplitude of <parity> under a phase rotation applied to every qubit.
   F > 0.5 certifies genuine n-qubit entanglement. *)
let ghz_fidelity ?trajectories machine n =
  let open Ir.Gate in
  if not (Machine.fits machine (Ir.Circuit.empty n)) then None
  else begin
    let prep = One (H, 0) :: List.init (n - 1) (fun i -> Two (Cnot, i, i + 1)) in
    let measured = List.init n (fun q -> q) in
    let run gates =
      let circuit = Ir.Circuit.measure_all (Ir.Circuit.create n gates) measured in
      let compiled =
        Pipeline.to_compiled (compile_level machine Pipeline.OneQOptCN circuit)
      in
      let spec =
        Ir.Spec.distribution measured
          (Sim.Runner.ideal_distribution (Ir.Circuit.create n gates) ~measured)
      in
      (Sim.Runner.simulate ~config:(Sim.Runner.Config.make ?trajectories ()) compiled spec).Sim.Runner.distribution
    in
    (* Populations from the computational-basis run. *)
    let z_dist = run prep in
    let prob bits = Option.value ~default:0.0 (List.assoc_opt bits z_dist) in
    let populations = prob (String.make n '0') +. prob (String.make n '1') in
    (* Parity oscillation: rotate every qubit by phi about an equatorial
       axis, measure <X^n parity>; the coherence is the amplitude of the
       cos(n phi) component. *)
    let steps = 2 * n in
    let coherence_samples =
      pmap_range steps (fun k ->
          let phi = Float.pi *. float_of_int k /. float_of_int steps in
          let rotate =
            List.init n (fun q -> One (Rz phi, q))
            @ List.init n (fun q -> One (H, q))
          in
          let dist = run (prep @ rotate) in
          let parity = Sim.Dist.parity_expectation dist measured in
          (phi, parity))
    in
    (* Amplitude of the cos(n phi) Fourier component. *)
    let coherence =
      2.0
      /. float_of_int steps
      *. Float.abs
           (List.fold_left
              (fun acc (phi, p) -> acc +. (p *. cos (float_of_int n *. phi)))
              0.0 coherence_samples)
    in
    Some ((populations /. 2.0) +. (coherence /. 2.0))
  end

let ghz_data ?trajectories ?(n = 3) () =
  List.filter_map
    (fun machine ->
      Option.map (fun f -> (machine.Machine.name, f)) (ghz_fidelity ?trajectories machine n))
    Machines.all

let print_ghz ?trajectories () =
  let data = ghz_data ?trajectories () in
  Table.print ~title:"Extension: GHZ3 fidelity via parity oscillations"
    ~header:[ "Machine"; "Fidelity" ]
    (List.map (fun (name, f) -> [ name; Table.f3 f ]) data);
  print_endline "F > 0.5 certifies genuine 3-qubit entanglement."
