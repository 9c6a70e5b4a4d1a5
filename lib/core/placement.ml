(* The bridge between the circuit/reliability world and the
   score-model-agnostic layout engine: lowers circuits to
   Layout.Problem.t and dispatches on the configured strategy. *)

let interactions (c : Ir.Circuit.t) =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun g ->
      match (g : Ir.Gate.t) with
      | Two (_, a, b) ->
        let key = if Hashtbl.mem table (b, a) then (b, a) else (a, b) in
        if not (Hashtbl.mem table key) then order := key :: !order;
        Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
      | Ccx _ | Cswap _ ->
        Analysis.Diag.invalid ~rule:"circuit.flat" ~layer:"mapping"
          "circuit not flattened: %s" (Ir.Gate.to_string g)
      | One _ | Measure _ -> ())
    c.Ir.Circuit.gates;
  List.rev_map (fun key -> (key, Hashtbl.find table key)) !order

let check_fits ~n_program ~n_hardware =
  if n_program > n_hardware then
    Analysis.Diag.invalid ~rule:"circuit.bounds" ~layer:"mapping"
      "%d-qubit program does not fit a %d-qubit device" n_program n_hardware

let trivial ~n_program ~n_hardware =
  check_fits ~n_program ~n_hardware;
  Array.init n_program (fun i -> i)

let problem ?(objective = Layout.Problem.Max_min) reliability (c : Ir.Circuit.t) =
  let n_program = c.Ir.Circuit.n_qubits in
  let n_hardware = Reliability.n_qubits reliability in
  check_fits ~n_program ~n_hardware;
  Layout.Problem.make ~objective ~n_program ~n_hardware
    ~pairs:(interactions c)
    ~measured:(Ir.Circuit.measured_qubits c)
    ~score:(Reliability.score reliability)
    ~readout:(Reliability.readout_reliability reliability)
    ()

let run_strategy ~(config : Layout.Config.t) pr =
  let budget = config.Layout.Config.node_budget in
  let name = Layout.Config.strategy_name config.Layout.Config.strategy in
  let report, _dt =
    Obs.Span.timed
      ~attrs:[ ("strategy", Obs.Span.Str name) ]
      ~result_attrs:(fun (r : Layout.Report.t) ->
        [
          ("work", Obs.Span.Int (Layout.Report.work_total r.Layout.Report.work));
          ("proven_optimal", Obs.Span.Bool r.Layout.Report.proven_optimal);
        ])
      ("layout.strategy." ^ name)
      (fun () ->
        match config.Layout.Config.strategy with
        | Layout.Config.Bb -> Layout.Bb.solve ?node_budget:budget pr
        | Layout.Config.Smt -> Layout.Smt_search.solve ?decision_budget:budget pr)
  in
  report

let solve ?(config = Layout.Config.default) ~reliability ~machine_name
    (c : Ir.Circuit.t) : Layout.Report.t =
  let pr = problem reliability c in
  let attrs =
    [
      ("strategy", Obs.Span.Str (Layout.Config.strategy_name config.Layout.Config.strategy));
      ("machine", Obs.Span.Str machine_name);
    ]
  in
  let report, _dt = Obs.Span.timed ~attrs "layout.solve" (fun () -> run_strategy ~config pr) in
  report

let cache_clear () = ()
