(** The pipeline's entry to the layout engine: lowers a circuit plus
    reliability matrix to a {!Layout.Problem.t} and dispatches on the
    configured strategy (B&B or SMT). Every solve runs inside a
    [layout.solve] span, each engine run inside a
    [layout.strategy.<name>] span. The module keeps no state between
    solves. *)

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

(** [solve ?config ~reliability ~machine_name circuit] lowers the circuit
    and runs the configured strategy on it. [machine_name] labels the
    [layout.solve] span. The report's placement is a fresh array. *)
val solve :
  ?config:Layout.Config.t ->
  reliability:Reliability.t ->
  machine_name:string ->
  Ir.Circuit.t ->
  Layout.Report.t

(** [cache_clear ()] does nothing: placement keeps no cache. It stays
    for callers that clear every cache before a cold run, next to
    {!Reliability.cache_clear}. *)
val cache_clear : unit -> unit
