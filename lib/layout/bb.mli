(** Branch-and-bound placement: the paper's max-min search (Section 4.3)
    rebuilt with memoized partial-assignment bounds, a log-product bound
    on branches that can only tie the incumbent's minimum, and dominance
    pruning over symmetric hardware qubits. Each search node is
    allocation-free.

    All three prunings are conservative: they only discard subtrees that
    provably cannot change the recorded incumbent, so results are
    bit-identical to the un-pruned search (pinned by the compiled-artifact
    digests in [test/layout_golden.ml]). Every solve adds its node count
    to the [layout.bb.nodes] counter and, when it hits the budget, one to
    [layout.bb.truncated]. *)

val default_node_budget : int

(** [solve ?node_budget problem] searches for the placement optimizing
    [problem.objective]. Default budget: 200_000 nodes; exceeding it
    returns the best placement so far with [proven_optimal = false]. *)
val solve : ?node_budget:int -> Problem.t -> Report.t
