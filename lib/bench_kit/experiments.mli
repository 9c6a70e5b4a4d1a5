(** The experiment harness: one section per table and figure of the
    paper's evaluation and per extension study (see DESIGN.md's experiment
    index), all rendered from one {!run}.

    Every experiment that compiles declares a grid of {!Cell.t}s and the
    value each cell gives. A run executes the grids its sections read as
    one {!Cell.run_batch}, so each distinct compile and simulation
    happens once per run whichever figures show it; {!sections} renders
    the run as text tables and {!Report.generate} as markdown.
    Success-rate grids take [?trajectories] to trade precision for speed.
    Cells fan out across {!Parallel.Pool.default} (the [-j] flags of
    bench/main and triqc) and every simulation seeds its own RNG, so all
    values are identical for every pool size. Two exceptions keep their
    own code: {!scaling_data} (its supremacy circuits have no spec) and
    {!ablation_mapper_data} (it runs the layout engines directly). The
    data functions below, which tests and perfbench call, each run their
    grid as a batch of its own. *)

(** A per-benchmark row: benchmark name and one value per series, [None]
    when the benchmark does not fit the machine (the paper's "X"). *)
type 'a row = 'a Cell.row = { bench : string; values : (string * 'a option) list }

(** One bench run's data (the fields are listed at {!Report.run}). *)
type run = Report.run

(** A section of bench/main.exe: its id, the cell grids it reads (named
    after their {!Report.run} fields) and its renderer, which prints its
    text tables (the ["report"] section the markdown report). *)
type section = { id : string; reads : string list; render : run -> unit }

(** [run ?trajectories sections] compiles and simulates the union of the
    cell grids [sections] read, as one batch, and nothing else; reading a
    cell grid it did not plan raises [Invalid_argument] naming the grid.
    The cell-free grids (figures 1 and 3, scaling, the mapper ablation,
    characterization) and the summary are lazy: computed once, on demand,
    and forced only from the domain that created the run. Nothing is
    cached beyond the run. *)
val run : ?trajectories:int -> section list -> run

(** Every section, in the order a full run prints them. *)
val sections : section list

(* -- Device and toolflow descriptions -- *)

(** Figure 1: device characteristics, one row per machine. *)
val fig1_rows : unit -> string list list

(** Figure 3: 26 days of 2Q error rates for four IBMQ14 couplings. *)
val fig3_series : unit -> ((int * int) * float list) list

(* -- Gate specificity (Figures 8, 9) -- *)

(** Figure 8: native 1Q pulse counts under TriQ-N vs TriQ-1QOpt on
    IBMQ14, Rigetti Agave and UMDTI. Returns (machine name, rows). *)
val fig8_data : unit -> (string * int row list) list

(** Figure 9: measured success rate, TriQ-N vs TriQ-1QOpt, on IBMQ14 and
    UMDTI. *)
val fig9_data : ?trajectories:int -> unit -> (string * float row list) list

(* -- Communication optimization (Figure 10) -- *)

(** Figure 10a/b: 2Q gate counts, TriQ-1QOpt vs TriQ-1QOptC, on IBMQ14 and
    Agave. *)
val fig10_counts : unit -> (string * int row list) list

(** Figure 10c: success rates for the same two levels on IBMQ14. *)
val fig10_success : ?trajectories:int -> unit -> float row list

(* -- Noise adaptivity (Figure 11) -- *)

(** Figure 11b: success rates on IBMQ14 for Qiskit, TriQ-1QOptC and
    TriQ-1QOptCN. (Figure 11a's 2Q counts come off the same cells.) *)
val fig11_ibm_success : ?trajectories:int -> unit -> float row list

(** Figure 11e/f: success rate of Toffoli (1..8) and Fredkin (1..7)
    sequences on UMDTI, TriQ-1QOptC vs TriQ-1QOptCN. Returns
    (series name, rows indexed by iteration count). *)
val fig11_sequences : ?trajectories:int -> unit -> (string * float row list) list

(* -- Cross-platform summary (Figure 12) -- *)

(** Figure 12: TriQ-1QOptCN success rate for the 12 benchmarks on all
    seven systems. *)
val fig12_data : ?trajectories:int -> unit -> float row list

(* -- Scaling study (Section 6.5) -- *)

(** Compile-time scaling on supremacy circuits mapped to Bristlecone-style
    grids: (label, qubits, 2Q gates, compile seconds). [?node_budget]
    bounds the mapper search per instance. *)
val scaling_data :
  ?node_budget:int -> ?depth:int -> unit -> (string * int * int * float) list

(* -- Related-work comparison (Section 8) -- *)

(** 2Q gate counts on IBMQ16: Zulehner-style hop minimizer vs
    TriQ-1QOptC, with the geomean ratio the paper reports (1.2x). *)
val related_data : unit -> int row list

(** [geomean_improvement rows ~better ~baseline] is the geometric mean of
    baseline/better value ratios over rows where both are present —
    improvement factors as the paper reports them (for success rates use
    [~invert:true] to compute better/baseline instead). *)
val geomean_improvement :
  ?invert:bool -> 'a row list -> better:string -> baseline:string -> ('a -> float) -> float

(* -- Extensions beyond the paper's figures (see EXPERIMENTS.md) -- *)

(** Mapper-engine ablation on IBMQ16 (Section 4.3): branch-and-bound with
    TriQ's max-min objective, branch-and-bound with prior work's product
    objective, and the SAT-encoded threshold search
    ({!Layout.Smt_search}) — work done and achieved minimum reliability
    for each. Rows are [(benchmark, max_min, product, smt)]. *)
val ablation_mapper_data :
  ?node_budget:int ->
  unit ->
  (string * Layout.Report.t * Layout.Report.t * Layout.Report.t) list

(** Peephole ablation: hardware 2Q counts with and without adjacent
    self-inverse pair cancellation. *)
val ablation_peephole_data : unit -> (string * int * int) list

(** Section 8's six-day BV4-on-IBMQ5 comparison (Tannu & Qureshi):
    (day, TriQ-1QOptCN success, Qiskit-like success). *)
val tannu_data : ?trajectories:int -> unit -> (int * float * float) list

(** Staleness study: success of a day-0 executable run on later days vs
    recompiling against each day's calibration: (day, stale, fresh). *)
val staleness_data : ?trajectories:int -> ?days:int -> unit -> (int * float * float) list

(** Topology projection: identical error profile on the Melbourne lattice
    vs a heavy-hex-style layout. *)
val heavyhex_data : ?trajectories:int -> unit -> float row list

(** Variability panel: BV4 success per calibration day on the IBM
    machines: (machine, per-day success list). *)
val variability_data :
  ?trajectories:int -> ?days:int -> unit -> (string * float list) list

(** Section 6.4 what-if: Aspen1 vs the same hardware with the parametric
    iSWAP exposed: (machine, benchmark, 2Q plain, success plain,
    2Q parametric, success parametric). *)
val parametric_data :
  ?trajectories:int -> unit -> (string * string * int * float * int * float) list

(** Noise-model ablation: success under the folded-decoherence model vs
    explicit amplitude-damping channels: (benchmark, folded, explicit). *)
val noise_model_data : ?trajectories:int -> unit -> (string * float * float) list

(** GHZ-state fidelity via parity oscillations: (machine, fidelity);
    F > 0.5 witnesses genuine n-qubit entanglement. *)
val ghz_data : ?trajectories:int -> ?n:int -> unit -> (string * float) list

