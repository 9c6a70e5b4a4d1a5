(** The experiment harness: one entry per table and figure of the paper's
    evaluation (see DESIGN.md's experiment index).

    Every experiment has a data function (structured rows, used by tests
    and by EXPERIMENTS.md generation) and a [print_*] companion that
    renders the same rows as a text table. Success-rate experiments accept
    [?trajectories] to trade precision for speed (tests use small values;
    the bench harness uses the default).

    Every data function that compiles builds its grid of {!Cell.t}s —
    machine, program, compiler schedule, compile config, optional
    simulation — and runs it with {!Cell.run_cells}, which fans the cells
    out across {!Parallel.Pool.default} (resize it with
    [Parallel.Pool.set_default_jobs], i.e. the [-j] flags of bench/main
    and triqc). Every simulation seeds its own RNG, so all data functions
    return identical values for every pool size — parallelism changes
    only wall-clock time. Two exceptions keep their own code:
    {!scaling_data} (its supremacy circuits have no spec, and it reads
    only the compile) and {!ablation_mapper_data} (it runs the layout
    engines directly). *)

(** A per-benchmark row: benchmark name and one value per series, [None]
    when the benchmark does not fit the machine (the paper's "X"). *)
type 'a row = 'a Cell.row = { bench : string; values : (string * 'a option) list }

(* -- Device and toolflow descriptions -- *)

val fig1_rows : unit -> string list list
val print_fig1 : unit -> unit

val fig2_rows : unit -> string list list
val print_fig2 : unit -> unit

(** Figure 3: 26 days of 2Q error rates for four IBMQ14 couplings. *)
val fig3_series : unit -> ((int * int) * float list) list

val print_fig3 : unit -> unit

val tab1_rows : unit -> string list list
val print_tab1 : unit -> unit

val print_fig5 : unit -> unit
val print_fig6 : unit -> unit

val fig7_rows : unit -> string list list
val print_fig7 : unit -> unit

(* -- Gate specificity (Figures 8, 9) -- *)

(** Figure 8: native 1Q pulse counts under TriQ-N vs TriQ-1QOpt on
    IBMQ14, Rigetti Agave and UMDTI. Returns (machine name, rows). *)
val fig8_data : unit -> (string * int row list) list

val print_fig8 : unit -> unit

(** Figure 9: measured success rate, TriQ-N vs TriQ-1QOpt, on IBMQ14 and
    UMDTI. *)
val fig9_data : ?trajectories:int -> unit -> (string * float row list) list

val print_fig9 : ?trajectories:int -> unit -> unit

(* -- Communication optimization (Figure 10) -- *)

(** Figure 10a/b: 2Q gate counts, TriQ-1QOpt vs TriQ-1QOptC, on IBMQ14 and
    Agave. *)
val fig10_counts : unit -> (string * int row list) list

(** Figure 10c: success rates for the same two levels on IBMQ14. *)
val fig10_success : ?trajectories:int -> unit -> float row list

val print_fig10 : ?trajectories:int -> unit -> unit

(* -- Noise adaptivity (Figure 11) -- *)

(** Figure 11a: 2Q counts on IBMQ14 for Qiskit, TriQ-1QOptC,
    TriQ-1QOptCN. *)
val fig11_counts : unit -> int row list

(** Figure 11b: success rates on IBMQ14 for the same three compilers. *)
val fig11_ibm_success : ?trajectories:int -> unit -> float row list

(** Figure 11c/d: success rates on Agave and Aspen1, Quil vs
    TriQ-1QOptCN. Returns (machine name, rows). *)
val fig11_rigetti_success :
  ?trajectories:int -> unit -> (string * float row list) list

(** Figure 11e/f: success rate of Toffoli (1..8) and Fredkin (1..7)
    sequences on UMDTI, TriQ-1QOptC vs TriQ-1QOptCN. Returns
    (series name, rows indexed by iteration count). *)
val fig11_sequences : ?trajectories:int -> unit -> (string * float row list) list

val print_fig11 : ?trajectories:int -> unit -> unit

(* -- Cross-platform summary (Figure 12) -- *)

(** Figure 12: TriQ-1QOptCN success rate for the 12 benchmarks on all
    seven systems. *)
val fig12_data : ?trajectories:int -> unit -> float row list

val print_fig12 : ?trajectories:int -> unit -> unit

(* -- Scaling study (Section 6.5) -- *)

(** Compile-time scaling on supremacy circuits mapped to Bristlecone-style
    grids: (label, qubits, 2Q gates, compile seconds). [?node_budget]
    bounds the mapper search per instance. *)
val scaling_data :
  ?node_budget:int -> ?depth:int -> unit -> (string * int * int * float) list

val print_scaling : ?node_budget:int -> ?depth:int -> unit -> unit

(* -- Related-work comparison (Section 8) -- *)

(** 2Q gate counts on IBMQ16: Zulehner-style hop minimizer vs
    TriQ-1QOptC, with the geomean ratio the paper reports (1.2x). *)
val related_data : unit -> int row list

val print_related : unit -> unit

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

val print_ablation_mapper : unit -> unit

(** Peephole ablation: hardware 2Q counts with and without adjacent
    self-inverse pair cancellation. *)
val ablation_peephole_data : unit -> (string * int * int) list

val print_ablation_peephole : unit -> unit

(** Large-ion-trap projection: success with/without noise adaptivity on a
    fully-connected trap whose 2Q error grows with ion distance. *)
val iontrap_data : ?trajectories:int -> ?ions:int -> unit -> float row list

val print_iontrap : ?trajectories:int -> unit -> unit

(** Section 8's six-day BV4-on-IBMQ5 comparison (Tannu & Qureshi):
    (day, TriQ-1QOptCN success, Qiskit-like success). *)
val tannu_data : ?trajectories:int -> unit -> (int * float * float) list

val print_tannu : ?trajectories:int -> unit -> unit

(** Pulse-level schedule length against the coherence window for every
    machine (Toffoli benchmark): (machine, pulses, frame changes,
    duration us, fraction of T, accumulated gate error). *)
val coherence_data : unit -> (string * int * int * float * float * float) list

val print_coherence : unit -> unit

(** Characterization closure: (machine, injected 1Q error, RB-recovered 1Q
    error, injected 2Q error, RB-recovered 2Q error) for one
    representative qubit/coupling per machine. *)
val characterize_data : unit -> (string * float * float * float * float) list

val print_characterize : unit -> unit

(** Routing ablation on IBMQ14: noise-aware mapping with hop-count routing
    vs full reliability-path routing. *)
val ablation_routing_data : ?trajectories:int -> unit -> float row list

val print_ablation_routing : ?trajectories:int -> unit -> unit

(** Staleness study: success of a day-0 executable run on later days vs
    recompiling against each day's calibration: (day, stale, fresh). *)
val staleness_data : ?trajectories:int -> ?days:int -> unit -> (int * float * float) list

val print_staleness : ?trajectories:int -> unit -> unit

(** ESP-vs-measured-success validation across the full study grid:
    (machine/benchmark label, ESP, measured success). *)
val esp_correlation_data : ?trajectories:int -> unit -> (string * float * float) list

val print_esp_correlation : ?trajectories:int -> unit -> unit

(** Lookahead-routing ablation on IBMQ14: (benchmark, default-router 2Q
    count, success, lookahead 2Q count, success). *)
val ablation_lookahead_data :
  ?trajectories:int -> unit -> (string * int * float * int * float) list

val print_ablation_lookahead : ?trajectories:int -> unit -> unit

(** Headline summary rows: (metric, paper-reported, measured). *)
val summary_data : ?trajectories:int -> unit -> (string * string * string) list

val print_summary : ?trajectories:int -> unit -> unit

(** Per-benchmark compiled-executable properties on a machine: 2Q count,
    pulses, swaps, depth, duration, ESP. *)
val properties_rows : Device.Machine.t -> string list list

val print_properties : Device.Machine.t -> unit

(** Topology projection: identical error profile on the Melbourne lattice
    vs a heavy-hex-style layout. *)
val heavyhex_data : ?trajectories:int -> unit -> float row list

val print_heavyhex : ?trajectories:int -> unit -> unit

(** Variability panel: BV4 success per calibration day on the IBM
    machines: (machine, per-day success list). *)
val variability_data :
  ?trajectories:int -> ?days:int -> unit -> (string * float list) list

val print_variability : ?trajectories:int -> unit -> unit

(** Section 6.4 what-if: Aspen1 vs the same hardware with the parametric
    iSWAP exposed: (machine, benchmark, 2Q plain, success plain,
    2Q parametric, success parametric). *)
val parametric_data :
  ?trajectories:int -> unit -> (string * string * int * float * int * float) list

val print_parametric : ?trajectories:int -> unit -> unit

(** Noise-model ablation: success under the folded-decoherence model vs
    explicit amplitude-damping channels: (benchmark, folded, explicit). *)
val noise_model_data : ?trajectories:int -> unit -> (string * float * float) list

val print_noise_model : ?trajectories:int -> unit -> unit

(** GHZ-state fidelity via parity oscillations: (machine, fidelity);
    F > 0.5 witnesses genuine n-qubit entanglement. *)
val ghz_data : ?trajectories:int -> ?n:int -> unit -> (string * float) list

val print_ghz : ?trajectories:int -> unit -> unit
