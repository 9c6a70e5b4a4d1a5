(** Branch-and-bound placement: the paper's max-min search (Section 4.3)
    rebuilt with memoized partial-assignment bounds, a log-product bound
    on branches that can only tie the incumbent's minimum, dominance
    pruning over symmetric hardware qubits, and twin program qubits
    (interchangeable adjacent qubits of the placement order, such as BV's
    data qubits, whose hardware sets are searched in one order only). Each
    search node is allocation-free.

    The returned objective is bitwise identical to the un-pruned search's.
    The placement is too, except inside a run of twin qubits: there it is
    the first ordering of the chosen hardware set in branching order,
    whose log-product may be an ulp or two below another ordering's
    (pinned by the compiled-artifact digests in [test/layout_golden.ml]).
    Every solve adds its node count to the [layout.bb.nodes] counter and,
    when it hits the budget, one to [layout.bb.truncated]. *)

val default_node_budget : int

(** [solve ?node_budget problem] searches for the placement optimizing
    [problem.objective]. Default budget: 200_000 nodes; exceeding it
    returns the best placement so far with [proven_optimal = false]. *)
val solve : ?node_budget:int -> Problem.t -> Report.t
