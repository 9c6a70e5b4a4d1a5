type strategy = Bb | Smt

let all = [ Bb; Smt ]
let strategy_name = function Bb -> "bb" | Smt -> "smt"
let strategy_names = List.map strategy_name all

let strategy_of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun k -> strategy_name k = s) all

type t = { strategy : strategy; node_budget : int option }

let default = { strategy = Bb; node_budget = None }
let make ?(strategy = Bb) ?node_budget () = { strategy; node_budget }
