(** The cross-layer oracle catalog behind [triqc fuzz].

    Each oracle is a property over generated circuits (and, where
    relevant, machine/level/config space) that the full stack must
    satisfy for {e every} input, not just the fixture benchmarks:

    - {b roundtrip}: [Backend.*_emit] followed by [Backend.*_parse]
      reproduces the circuit gate-for-gate (angles exact to 1 ulp —
      emitters print 17 significant digits) for all three vendor
      formats, including under CRLF line endings, trailing whitespace
      and tab separators;
    - {b semantic}: the statevector and density-matrix simulators agree
      on ideal output distributions (<= 6 qubits, L1 <= 1e-9);
    - {b schedule}: every optimization level and router/peephole
      ablation compiles generated programs to executables whose
      noiseless output distribution matches the source program's
      ({!Sim.Verify});
    - {b determinism}: {!Sim.Runner} outcomes are bit-for-bit identical
      across domain-pool sizes 1, 2 and 8.

    The [check_*] functions are the raw properties — [Ok ()] on pass or
    vacuously-unmet preconditions, [Error message] on failure — exposed
    so shrunk counterexamples can be pinned as ordinary unit tests
    (see docs/TESTING.md, "Reproducing a fuzz failure"). *)

(** {1 Properties} *)

type vendor = Qasm | Quil | Ti

val vendor_name : vendor -> string

(** [check_roundtrip v c] emits [c] in [v]'s format and parses it back.
    [c] must use only [v]-visible gates (the generators guarantee it);
    an emitter rejection is reported as a failure. Verifies gate
    sequence, qubit count (declared for QASM; inferred from use for
    Quil/TI), the readout map, and that a whitespace-mangled copy of the
    text (CRLF + tabs + trailing blanks) parses identically. Vacuous for
    a gate-free circuit under Quil/TI, whose parsers reject empty
    programs by design. *)
val check_roundtrip : vendor -> Ir.Circuit.t -> (unit, string) result

(** [check_semantic c] compares statevector and density simulations of
    [c]'s measure-free body. Vacuous for circuits over 6 qubits. *)
val check_semantic : Ir.Circuit.t -> (unit, string) result

(** [check_dataflow c] cross-validates the static dataflow domains
    against the simulator: deleting every gate {!Dataflow.Liveness}
    reports dead must leave the measured-outcome distribution untouched,
    and when {!Dataflow.Tableau} models [c]'s body as Clifford, each
    reported stabilizer generator must satisfy [<psi|P|psi> = 1] on the
    simulated statevector. Vacuous over 6 qubits. *)
val check_dataflow : Ir.Circuit.t -> (unit, string) result

(** [check_schedule ~machine ~level ~router ~peephole ~day c] compiles
    [c] under the given schedule/ablation and verifies the executable's
    noiseless semantics against the source program. Vacuous if [c] does
    not fit [machine] or measures nothing. *)
val check_schedule :
  machine:Device.Machine.t ->
  level:Triq.Pipeline.level ->
  router:Triq.Pass.Config.router ->
  peephole:bool ->
  day:int ->
  Ir.Circuit.t ->
  (unit, string) result

(** [check_determinism ~machine ~sample_counts ~explicit_t1 ~run_seed c]
    compiles [c] at TriQ-1QOptCN and runs the noisy simulator on domain
    pools of 1, 2 and 8, requiring identical outcomes (distribution,
    counts, success rate). Vacuous if [c] does not fit or measures
    nothing. The pools are created once and reused across calls. *)
val check_determinism :
  machine:Device.Machine.t ->
  sample_counts:bool ->
  explicit_t1:bool ->
  run_seed:int ->
  Ir.Circuit.t ->
  (unit, string) result

(** [check_clifford ~machine ~run_seed c] cross-validates the
    polynomial-time stabilizer backend against the dense statevector on
    [c]'s Clifford prefix (distribution L1 <= 1e-9, materialized state,
    sampled outcomes confined to the support), then — when [c] fits
    [machine] and measures something — compiles [c] at TriQ-1QOptCN and
    requires the noisy runner's [Auto] dispatch (stabilizer or hybrid)
    to reproduce the forced [Statevector] backend with fusion off
    (identical error-Pauli draw order; max per-outcome gap 2e-6). It
    repeats that comparison with one [T] appended before the readout, so
    erred Clifford prefixes take the hybrid backend's Pauli-frame
    hand-off. *)
val check_clifford :
  machine:Device.Machine.t ->
  run_seed:int ->
  Ir.Circuit.t ->
  (unit, string) result

(** [check_layout ~machine ~day c] lowers [c]'s interaction graph against
    the day's reliability model, noise-aware and then noise-unaware, and
    requires in each mode (a) the B&B and SMT layout strategies to return
    valid injective placements agreeing on the max-min objective (within
    1e-9, whenever B&B proved optimality), and (b) a repeat
    {!Triq.Placement.solve} to return the same report (placement,
    objective, log-product, optimality, work). Vacuous if [c] does not fit
    [machine]. *)
val check_layout :
  machine:Device.Machine.t -> day:int -> Ir.Circuit.t -> (unit, string) result

(** {1 Running oracles} *)

(** Canonical (name, description) rows, in catalog order:
    ["roundtrip"; "semantic"; "dataflow"; "schedule"; "determinism";
    "clifford"; "layout"]. *)
val catalog : (string * string) list

type failure_report = {
  case_index : int;  (** failing generated case (0-based, seed-stable) *)
  message : string;  (** failure message of the shrunk case *)
  original_message : string;
  shrunk_show : string;  (** pretty-printed shrunk counterexample *)
  repro : string;  (** paste-ready Alcotest case rebuilding it *)
  shrink_steps : int;
}

type report = {
  oracle : string;
  seed : int;
  cases : int;  (** requested *)
  cases_run : int;  (** executed (stops at first failure) *)
  failure : failure_report option;
}

(** [run ~seed ~cases name] runs one oracle; [Error] on unknown name. *)
val run : seed:int -> cases:int -> string -> (report, string) result

(** All oracles in catalog order. *)
val run_all : seed:int -> cases:int -> report list

(** Multi-line human-readable rendering (stable across runs for a fixed
    seed — no timings — so it can serve as an expected-output
    fixture). *)
val report_text : report -> string

(** One JSON object: oracle, seed, case counts, status and, on failure,
    the shrunk counterexample and its repro. *)
val report_json : report -> Obs.Json.t
