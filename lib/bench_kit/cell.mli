(** One cell of the study grid, and the one driver that runs cells.

    The paper's evaluation is a grid of benchmark × machine × compiler
    cells. A cell compiles one program for one machine with one compiler
    and, unless it is compile-only, simulates the executable; a figure
    reads one value off each cell (success rate, 2Q count, ESP, ...).
    Every figure of {!Experiments} that compiles goes through
    {!run_batch}. *)

type t = {
  machine : Device.Machine.t;
  program : Programs.t;
  compiler : Triq.Pass.Schedule.t;  (** a TriQ level, a baseline, an ablation *)
  config : Triq.Pass.Config.t;  (** compile options, including the calibration day *)
  sim : Sim.Runner.Config.t option;
      (** [None]: compile only. The runner config carries the
          trajectories, the run-day override and [explicit_t1]. *)
}

(** A per-benchmark row: benchmark name and one value per series, [None]
    when the benchmark does not fit the machine (the paper's "X"). *)
type 'a row = { bench : string; values : (string * 'a option) list }

(** A grid of one batch, its value type hidden. *)
type request

(** [request project groups receive]: the grid [groups] — named groups
    (a machine, a series) of rows (a benchmark) of named cells (a
    compiler, a column) — whose cells give [project compiled outcome]
    ([outcome = None] for a compile-only cell). {!run_batch} hands
    [receive] the same shape with each value, or [None] where the program
    has more qubits than the machine. *)
val request :
  (Triq.Compiled.t -> Sim.Runner.outcome option -> 'a) ->
  (string * (string * (string * t) list) list) list ->
  ((string * 'a row list) list -> unit) ->
  request

(** [run_batch requests] runs every cell of [requests], then calls each
    receiver in order.

    Cells are keyed on their inputs: they share a compile when machines
    are physically equal and programs, compile configs and schedules
    equal — a schedule holds closures, so it is compared by name and
    {!Triq.Pass.Schedule.pass_names}, assuming one name and one pass list
    run the same passes — and, within a compile, share a simulation when
    runner configs are equal ([pool] compared physically). Each distinct
    compile is one task on {!Parallel.Pool.default}: fit check and
    {!Triq.Pipeline.compile_schedule} once, {!Sim.Runner.simulate} once
    per distinct runner config, then every asking cell's projection. Only
    projected values outlive the task, and every simulation seeds its own
    RNG, so values are identical for every pool size and every batch.

    Each distinct (compile, runner config) runs in one ["bench_kit.cell"]
    span, the compile in the first: attributes [machine], [compiler],
    [benchmark], [day] (the compile day), [router] when it is the
    lookahead router, [peephole] and [explicit_t1] when set, [run_day]
    when the runner overrides it, and [trajectories] ([Str
    "compile-only"] without a runner config). *)
val run_batch : request list -> unit

(** [run_cells project groups] runs one grid as its own batch. *)
val run_cells :
  (Triq.Compiled.t -> Sim.Runner.outcome option -> 'a) ->
  (string * (string * (string * t) list) list) list ->
  (string * 'a row list) list
