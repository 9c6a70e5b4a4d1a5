(** The structured result every layout strategy returns.

    [work] keeps the engines' effort metrics in separate, honestly-named
    fields: B&B search nodes and SAT decisions are not the same unit. *)

type work = {
  search_nodes : int;  (** B&B assignments considered *)
  sat_decisions : int;  (** SAT branching decisions across all thresholds *)
}

val no_work : work

(** Sum of both effort counters (only one is non-zero for any engine). *)
val work_total : work -> int

(** How the layout cache participated in producing this report:
    [Hit] (placement served from cache), [Miss] (solved, then stored), or
    [Bypass] (a solver called directly, not through the cache). *)
type cache_status = Hit | Miss | Bypass

val cache_status_name : cache_status -> string

type t = {
  strategy : string;  (** ["bb"] or ["smt"] *)
  placement : int array;  (** program qubit -> hardware qubit *)
  objective : float;  (** min reliability over mapped 2Q ops and readouts *)
  log_product : float;  (** log of the reliability product *)
  proven_optimal : bool;  (** search space exhausted (not truncated) *)
  work : work;
  cache : cache_status;
}
