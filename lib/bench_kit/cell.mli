(** One cell of the study grid, and the one driver that runs cells.

    The paper's evaluation is a grid of benchmark × machine × compiler
    cells. A cell compiles one program for one machine with one compiler
    and, unless it is compile-only, simulates the executable; a figure
    reads one value off each cell (success rate, 2Q count, ESP, ...).
    Every figure of {!Experiments} that compiles goes through
    {!run_cells}. *)

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

(** [run_cells project groups] runs every cell of [groups] — named groups
    (a machine, a series) of rows (a benchmark) of named cells (a
    compiler, a column) — and returns the same shape with each cell
    replaced by its value.

    A cell whose program has more qubits than its machine gives [None].
    Any other cell is compiled once with {!Triq.Pipeline.compile_schedule},
    simulated once with {!Sim.Runner.simulate} when [sim] is set, and
    gives [Some (project compiled outcome)], with [outcome = None] for a
    compile-only cell. Only the projected value outlives the cell.

    All cells fan out across {!Parallel.Pool.default} as one batch, in
    row-major order. Each simulation seeds its own RNG, so the result is
    identical for every pool size. Each cell runs inside a
    ["bench_kit.cell"] span with attributes [machine], [compiler],
    [benchmark], [day] (the compile day), [router] when it is the
    lookahead router, [peephole] and [explicit_t1] when set, [run_day]
    when the runner overrides it, and [trajectories] ([Str
    "compile-only"] for a compile-only cell). *)
val run_cells :
  (Triq.Compiled.t -> Sim.Runner.outcome option -> 'a) ->
  (string * (string * (string * t) list) list) list ->
  (string * 'a row list) list
