(** Execute compiled programs under noise and score them the way the paper
    does.

    A run Monte-Carlo-samples error trajectories of the compiled hardware
    circuit (each physical gate fails with its calibrated probability and
    injects a random Pauli), averages the resulting output distributions,
    corrupts them with per-qubit readout error analytically, and reports
    the success rate: the probability mass on the correct answer, i.e. the
    expected fraction of repeated trials returning it. Counts are derived
    from the distribution at the requested trial count (8192 for
    superconducting machines and 5000 for UMDTI in the paper).

    Only the qubits the circuit actually touches are simulated, so a
    5-qubit benchmark mapped onto a 16-qubit device stays cheap.

    Trajectories run in parallel across a {!Parallel.Pool}: each
    trajectory draws from its own RNG stream (split off the master seed
    in trajectory order), trajectories are summed in fixed-size blocks,
    and block partials are folded in block order — so the outcome is
    bit-for-bit identical for every pool size, including sequential
    execution ([jobs = 1]). *)

type outcome = {
  distribution : (string * float) list;
      (** readout-corrupted distribution over the program's measured bits,
          descending probability, truncated below 1e-6 *)
  counts : (string * int) list;  (** distribution scaled to [trials] shots *)
  success_rate : float;
  dominant_correct : bool;
      (** whether the expected answer is the mode — the paper's zero-height
          bars are runs where it is not *)
  trials : int;
  trajectories : int;
}

(** Typed run configuration, mirroring [Pass.Config.t] on the compile
    side: one value to build once, thread through helpers, and record in
    reports, instead of re-plumbing seven optional arguments through
    every wrapper. *)
module Config : sig
  (** Simulation backend selection. [Auto] (the default) picks per
      circuit: Clifford-only circuits run entirely on the
      polynomial-time tableau ({!Dataflow.Tableau}); circuits with a
      substantial Clifford prefix simulate the prefix on the tableau
      and materialize a statevector for the non-Clifford tail; anything
      else (and any [explicit_t1] run — amplitude damping is not a
      Clifford channel) uses the dense {!Statevector}. Forcing
      [Stabilizer] raises [Invalid_argument] on non-Clifford circuits
      or with [explicit_t1]. *)
  type backend = Auto | Statevector | Stabilizer

  val backend_of_string : string -> backend option
  val backend_to_string : backend -> string

  type t = {
    seed : int;  (** master RNG seed (default [0xC0FFEE]) *)
    trials : int;  (** shots the counts are scaled to (default 8192) *)
    trajectories : int;  (** Monte-Carlo error trajectories (default 300) *)
    day : int option;
        (** calibration day the run happens under; [None] (default) uses
            the day the executable was compiled against — pass a later
            day to model a stale executable on a drifted machine *)
    sample_counts : bool;
        (** draw counts as a true multinomial sample (realistic shot
            noise) instead of the default deterministic
            largest-remainder rendering *)
    explicit_t1 : bool;
        (** model decoherence as an amplitude-damping channel
            (quantum-jump trajectories) instead of folding it into the
            depolarizing probability — cross-validated against the exact
            backend *)
    pool : Parallel.Pool.t option;
        (** domain pool trajectories fan out across; [None] (default)
            uses the process-wide {!Parallel.Pool.default}. A [jobs:1]
            pool forces sequential execution; the result is identical
            either way. *)
    backend : backend;  (** backend selection (default [Auto]) *)
    fusion : bool;
        (** fuse the statevector gate stream (1Q run merging, diagonal
            batching, permutation kernels) before executing trajectories
            (default [true]). The plan depends only on the circuit, so
            outcomes stay bit-identical across pool sizes; disabling it
            reproduces the gate-by-gate execution order exactly.
            Ignored (off) under [explicit_t1], whose per-gate stochastic
            relaxation cannot cross fused groups. *)
  }

  val default : t

  val make :
    ?seed:int ->
    ?trials:int ->
    ?trajectories:int ->
    ?day:int ->
    ?sample_counts:bool ->
    ?explicit_t1:bool ->
    ?pool:Parallel.Pool.t ->
    ?backend:backend ->
    ?fusion:bool ->
    unit ->
    t

  (** [check t] is [Error msg] when no run can use [t]: [trials] or
      [trajectories] below 1, or the [Stabilizer] backend with
      [explicit_t1]. {!simulate} raises [Invalid_argument] on it before
      any work; a front end calls it before compiling. *)
  val check : t -> (unit, string) result
end

(** [simulate ?config compiled spec] executes a compiled program against
    its specification under [config] (default {!Config.default}).
    [spec.measured] must list exactly the program qubits the compiled
    circuit reads out.

    A run is five stages, each a child span of ["sim.run"], in order:
    ["sim.prepare"] (validation, calibration and noise, used-qubit
    compaction, per-gate records), ["sim.plan"] (backend choice, tableau
    apps, Pauli-frame table, fusion plan, clean run and checkpoints;
    attributes [backend] — ["stabilizer"], ["hybrid"] or
    ["statevector"] — [fusion], [gates] and [clifford_prefix]),
    ["sim.execute"] (trajectory streams, blocks, in-order fold),
    ["sim.readout"] (projection and readout corruption) and
    ["sim.score"] (counts and the spec score).

    Observability: each trajectory block runs in a ["sim.block"] span on
    whichever pool domain executed it (nested in ["sim.execute"] on the
    calling domain), and the ["sim.trajectories"] / ["sim.blocks"]
    counters accumulate volume. ["sim.trajectories.erred"] counts the
    trajectories that were simulated rather than served from the cached
    ideal output. None of it perturbs the simulation: results stay
    bit-identical with tracing on or off.

    Raises [Invalid_argument], before any trajectory runs, if
    - [config] fails {!Config.check} ([trials] or [trajectories] below 1
      would yield all-NaN outcomes);
    - the hardware circuit touches no qubit, or more than 20;
    - a qubit of [spec.measured] is not read out by [compiled];
    - [backend] is [Stabilizer] and the circuit is not Clifford-only. *)
val simulate : ?config:Config.t -> Triq.Compiled.t -> Ir.Spec.t -> outcome

(** [ideal_distribution circuit ~measured] is the noiseless output
    distribution of a *program-level* circuit over the given measured
    qubits (bitstring order = [measured] order) — used to build
    specifications and as a test oracle. *)
val ideal_distribution : Ir.Circuit.t -> measured:int list -> (string * float) list
