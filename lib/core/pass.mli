(** First-class compiler passes and named schedules.

    The toolflow of Figure 4 is decomposed into named {!t} values — each
    pass transforms a shared compilation {!state} — and {!run_pass},
    which uniformly handles per-pass wall-clock timing and the
    {!Analysis.Check} pass-invariant harness. The four optimization
    levels of Table 1 are the named {!Schedule.t} values built by
    {!Schedule.of_level}, and the vendor baselines are schedules too;
    ablations (peephole cancellation, lookahead routing) are
    schedule/config edits rather than boolean plumbing.

    {!Pipeline.compile_schedule} is the one driver that runs a schedule
    into a {!Compiled.t}. Use this module to build custom schedules
    ([triqc compile --passes], [--disable-pass]) or to register
    project-specific passes (see docs/EXTENDING.md, "Adding a pass"). *)

(** {1 Optimization levels} *)

type level = N | OneQOpt | OneQOptC | OneQOptCN

val all_levels : level list
val level_name : level -> string

(** [level_of_string s] is case-insensitive and accepts both the short
    form ("1qoptcn") and the display form ("TriQ-1QOptCN"). *)
val level_of_string : string -> level option

(** The accepted spellings, for error messages: short names first, then
    display names. *)
val level_strings : string list

(** {1 Typed compilation options} *)

module Config : sig
  (** SWAP-insertion strategy: the paper's per-gate reliability-optimal
      router or the {!Router_lookahead} extension. *)
  type router = Default | Lookahead

  (** How much the pass-invariant harness checks after every pass.
      [Shape] runs each pass's structural rules (the PR-1 harness);
      [Deep] adds {!Dataflow.Validate} translation validation — readout
      liveness and, for Clifford circuits, stabilizer-tableau
      equivalence modulo placement. *)
  type validation = Off | Shape | Deep

  type t = {
    day : int;  (** calibration day to compile against *)
    layout : Layout.Config.t;
        (** layout-engine options for the mapping pass: strategy
            (bb/smt) and work budget *)
    router : router;
    peephole : bool;
        (** insert the adjacent self-inverse 2Q cancellation pass after
            SWAP expansion (an extension, not part of the paper's flow) *)
    validate : validation;
        (** arm the pass-invariant harness: after every pass, run the
            selected checks and raise {!Analysis.Diag.Violation} naming
            the pass that introduced a violation *)
  }

  (** Day 0, default layout config (B&B, default budget),
      default router, no peephole, no validation — the options
      [Pipeline.compile_level] defaults to. *)
  val default : t

  (** [?node_budget] and [?mapper] populate the [layout]
      record piecewise; [?layout] supplies it whole (and wins). *)
  val make :
    ?day:int ->
    ?node_budget:int ->
    ?mapper:Layout.Config.strategy ->
    ?layout:Layout.Config.t ->
    ?router:router ->
    ?peephole:bool ->
    ?validate:validation ->
    unit ->
    t

  val router_name : router -> string

  (** Case-insensitive; ["default"] or ["lookahead"]. *)
  val router_of_string : string -> router option

  val router_names : string list

  val validation_name : validation -> string

  (** Case-insensitive; ["off"], ["shape"] or ["deep"]. *)
  val validation_of_string : string -> validation option

  val validation_names : string list
end

(** {1 Compilation state}

    The record every pass transforms. [circuit] is the working circuit:
    program-level after [flatten], hardware-level after [routing],
    software-visible after [translation]/[oneq]. The remaining fields are
    statistics and context filled in as passes run. *)

type state = {
  machine : Device.Machine.t;
  config : Config.t;
  calibration : Device.Calibration.t;  (** the day's calibration data *)
  program : Ir.Circuit.t;  (** the untouched input program *)
  circuit : Ir.Circuit.t;  (** working circuit, rewritten by passes *)
  flat : Ir.Circuit.t;  (** flattened program (readout-map source) *)
  reliability : Reliability.t option;  (** set by the reliability pass *)
  initial_placement : int array;
  final_placement : int array;
  layout : Layout.Report.t option;
      (** the mapping pass's structured report ([None] for the identity
          mapping of levels N/1QOpt) *)
  swap_count : int;
  flipped_cnots : int;
  readout_map : (int * int) list;
}

(** {1 Passes} *)

type t = {
  name : string;  (** canonical identifier; timing key and violation tag *)
  about : string;  (** one-line description shown by [triqc passes] *)
  optional : bool;  (** may be removed from a schedule by [--disable-pass] *)
  run : state -> state;
  checks : state -> Analysis.Diag.t list list;
      (** static rules over the pass's output, run when
          [config.validate] — the PR-1 invariant harness *)
}

(** [make ~name run] defines a custom pass. [about] defaults to [""],
    [optional] to [true] (user passes may always be disabled), [checks]
    to none. *)
val make :
  name:string ->
  ?about:string ->
  ?optional:bool ->
  ?checks:(state -> Analysis.Diag.t list list) ->
  (state -> state) ->
  t

(** {2 The built-in catalog}

    Canonical names are shared by [pass_times_s] keys, validator
    violation tags, and [triqc passes]. Level- or config-dependent stages
    keep one canonical name across their variants (e.g. both
    [mapping_trivial] and [mapping_solver] are ["mapping"]). *)

(** ["flatten"]: decompose Toffoli/Fredkin into the 1Q + CNOT IR. *)
val flatten : t

(** ["reliability"]: build the reliability matrix — from the day's
    calibration when [noise_aware] (TriQ-1QOptCN), from device-average
    rates otherwise. *)
val reliability : noise_aware:bool -> t

(** ["mapping"]: identity placement (levels N / 1QOpt). *)
val mapping_trivial : t

(** ["mapping"]: max-min reliability placement via the layout engine —
    strategy, budget and cache behaviour come from [config.layout]
    (levels 1QOptC / 1QOptCN). *)
val mapping_solver : t

(** ["routing"]: reliability-path SWAP insertion with the given
    strategy. *)
val routing : Config.router -> t

(** ["swap-expansion"]: expand routed SWAPs using the machine's native
    basis (a directed-CNOT basis expands to 3 CNOTs + repairs), and
    record [flipped_cnots] on the expanded circuit. *)
val swap_expansion : t

(** ["swap-expansion"]: generic 3-CNOT SWAP expansion, no basis
    knowledge — the baselines' variant. *)
val swap_expansion_generic : t

(** ["peephole"]: cancel adjacent self-inverse 2Q pairs. *)
val peephole : t

(** ["orientation"]: repair CNOT direction on directed couplings. *)
val orientation : t

(** ["translation"]: rewrite 2Q gates into the software-visible set. *)
val translation : t

(** ["oneq"]: naive gate-by-gate 1Q translation (level N). *)
val oneq_naive : t

(** ["oneq"]: quaternion-based 1Q coalescing (all other levels). *)
val oneq_coalesce : t

(** ["readout"]: build the measured-program-qubit → hardware-qubit map
    from the final placement; when validating, run the full executable
    check ({!Analysis.Check.check_executable}). *)
val readout : t

(** Canonical (name, description) rows in toolflow order — the
    [triqc passes] listing. *)
val catalog : (string * string) list

(** Names of built-in passes a schedule may run without. *)
val optional_names : string list

(** [pass_of_name ~config ~level name] resolves a canonical name to the
    variant the config/level selects (e.g. ["mapping"] →
    [mapping_solver] at 1QOptC). [Error] lists the valid names. *)
val pass_of_name : config:Config.t -> level:level -> string -> (t, string) result

(** {1 Schedules} *)

module Schedule : sig
  type pass := t

  type t = {
    name : string;
        (** display name, e.g. "TriQ-1QOptCN" or "Qiskit"; it becomes the
            executable's [Compiled.compiler] *)
    passes : pass list;
  }

  (** The named schedule for a Table 1 level under [config] (default
      {!Config.default}): flatten → reliability → mapping → routing →
      swap-expansion [→ peephole] → orientation → translation → oneq →
      readout. *)
  val of_level : ?config:Config.t -> level -> t

  (** The four level schedules, in level order. *)
  val all : ?config:Config.t -> unit -> t list

  val pass_names : t -> string list

  (** [disable s name] removes an optional pass. [Error] if [name] is
      unknown, not in the schedule, or not optional. *)
  val disable : t -> string -> (t, string) result

  (** [make ?config ~level names] builds a custom schedule, named after
      [level], from canonical pass names resolved by {!pass_of_name}. *)
  val make : ?config:Config.t -> level:level -> string list -> (t, string) result
end

(** {1 Running passes}

    {!Pipeline.compile_schedule} drives these inside its [compile] span. *)

(** [init ~config machine circuit] is the starting state: fits-check,
    day-[config.day] calibration, identity placements. Raises
    [Invalid_argument] (rule [circuit.bounds]) if the program has more
    qubits than the machine. *)
val init : config:Config.t -> Device.Machine.t -> Ir.Circuit.t -> state

(** [run_pass state p] runs one pass, returning the new state and the
    pass's wall-clock seconds. The pass body executes inside an
    [Obs.Span] named ["pass.<name>"], and the returned dt is that span's
    own measurement — with tracing enabled, [pass_times_s] is a derived
    view of the trace. When [state.config.validate], [p.checks] run over
    the output (outside the timed region) and a violation raises
    {!Analysis.Diag.Violation}[ (p.name, diags)]. *)
val run_pass : state -> t -> state * float

(** [run_passes state ps] folds {!run_pass}, collecting
    [(name, seconds)] in schedule order. *)
val run_passes : state -> t list -> state * (string * float) list
