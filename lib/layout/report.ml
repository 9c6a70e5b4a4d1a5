type work = { search_nodes : int; sat_decisions : int }

let no_work = { search_nodes = 0; sat_decisions = 0 }
let work_total w = w.search_nodes + w.sat_decisions

type t = {
  strategy : string;
  placement : int array;
  objective : float;
  log_product : float;
  proven_optimal : bool;
  work : work;
}
