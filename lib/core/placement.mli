(** The pipeline's entry to the layout engine: lowers a circuit plus
    reliability matrix to a {!Layout.Problem.t}, dispatches on the
    configured strategy (B&B or SMT), and fronts the process-wide layout
    cache keyed on (reliability token, canonical interaction-graph form,
    machine, day, objective, strategy, budget).

    Every solve runs inside a [layout.solve] span, each engine run inside
    a [layout.strategy.<name>] span. The layout cache (capacity 512,
    counters [layout.cache.*]) and the canonical-form memo in front of it
    (capacity 512, counters [layout.canon.*]) are {!Parallel.Memo}
    instances. *)

(** [interactions c] aggregates the program's 2Q operations as
    [((a, b), count)] pairs over program qubits, with (a, b) in first-seen
    orientation. The circuit must be flattened (no Ccx/Cswap). *)
val interactions : Ir.Circuit.t -> ((int * int) * int) list

(** [trivial ~n_program ~n_hardware] is the identity placement 0..n-1 used
    by the default-mapping configurations (and by the vendor baselines).
    Raises the standard [circuit.bounds] diagnostic when the program does
    not fit. *)
val trivial : n_program:int -> n_hardware:int -> int array

(** [problem ?objective reliability circuit] lowers a flattened circuit.
    Raises the standard [circuit.bounds] diagnostic when the program does
    not fit. *)
val problem :
  ?objective:Layout.Problem.objective -> Reliability.t -> Ir.Circuit.t -> Layout.Problem.t

(** [solve ?config ~reliability ~machine_name ~day circuit] consults the
    layout cache and otherwise runs the configured strategy. *)
val solve :
  ?config:Layout.Config.t ->
  reliability:Reliability.t ->
  machine_name:string ->
  day:int ->
  Ir.Circuit.t ->
  Layout.Report.t

(** [cache_clear ()] empties the layout cache and the canonical-form memo
    (mirrors [Reliability.cache_clear]); a solve after it is cold. *)
val cache_clear : unit -> unit

(** The layout cache's stats since the last {!cache_clear}. *)
val cache_stats : unit -> Parallel.Memo.stats
