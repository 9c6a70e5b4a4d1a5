(** Branch-and-bound placement: the paper's max-min search (Section 4.3)
    rebuilt with memoized partial-assignment bounds and dominance pruning
    over symmetric hardware qubits.

    Both added prunings are conservative: they only discard subtrees that
    provably cannot change the recorded incumbent, so results are
    bit-identical to the un-pruned search (pinned by the compiled-artifact
    digests in [test/layout_golden.ml]). *)

val default_node_budget : int

(** [solve ?node_budget problem] searches for the placement optimizing
    [problem.objective]. Default budget: 200_000 nodes; exceeding it
    returns the best placement so far with [proven_optimal = false]. *)
val solve : ?node_budget:int -> Problem.t -> Report.t
