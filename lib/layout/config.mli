(** Layout-engine configuration: the one typed record threaded through
    [Pass.Config] and [Pipeline] (replacing the duplicated
    [mapper_nodes]/[mapper_optimal]/[node_budget] fields). *)

(** The paper's two placement solvers (Section 4.3): [Bb] is the max-min
    branch-and-bound search, [Smt] its SMT threshold formulation. *)
type strategy = Bb | Smt

val strategy_name : strategy -> string

(** Case-insensitive inverse of {!strategy_name}. *)
val strategy_of_string : string -> strategy option
val strategy_names : string list

type t = {
  strategy : strategy;  (** which engine the mapping pass runs *)
  node_budget : int option;
      (** engine work cap (B&B nodes / SAT decisions); [None] = engine
          default (200k nodes for B&B, unlimited for SMT) *)
}

val default : t
val make : ?strategy:strategy -> ?node_budget:int -> unit -> t
