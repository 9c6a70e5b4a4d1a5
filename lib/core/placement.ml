(* The bridge between the circuit/reliability world and the
   score-model-agnostic layout engine: lowers circuits to
   Layout.Problem.t, dispatches on the configured strategy, and fronts
   the process-wide layout cache.

   The cache token is the Reliability.t itself, compared physically:
   Reliability.compute_cached returns the identical matrix object for the
   same (machine, day, noise-awareness, calibration), so repeated compile
   traffic hits, while any structurally different model — including a
   same-named machine loaded from a different JSON file — misses. The
   scope names everything else that changes the answer (strategy,
   objective, budget, machine, day). The rest of the key is the problem's
   own program side, compared structurally, so a hit is always the exact
   problem that was solved and its stored report is already its own. *)

type layout_key = {
  token : Reliability.t;
  scope : string;
  n_program : int;
  pairs : ((int * int) * int) list;
  measured : int list;
}

module Layout_memo = Parallel.Memo.Make (struct
  type t = layout_key

  let equal a b =
    a.token == b.token && a.scope = b.scope && a.n_program = b.n_program
    && a.pairs = b.pairs && a.measured = b.measured

  let hash k = Hashtbl.hash (k.scope, k.n_program, k.pairs, k.measured)
end)

let cache : Layout.Report.t Layout_memo.t =
  Layout_memo.create ~name:"layout.cache" ~capacity:512

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

let scope ~(config : Layout.Config.t) ~machine_name ~day objective =
  String.concat "|"
    [
      Layout.Config.strategy_name config.Layout.Config.strategy;
      Layout.Problem.objective_name objective;
      (match config.Layout.Config.node_budget with
      | None -> "default"
      | Some b -> string_of_int b);
      machine_name;
      string_of_int day;
    ]

let solve ?(config = Layout.Config.default) ~reliability ~machine_name ~day
    (c : Ir.Circuit.t) : Layout.Report.t =
  let pr = problem reliability c in
  let attrs =
    [
      ("strategy", Obs.Span.Str (Layout.Config.strategy_name config.Layout.Config.strategy));
      ("machine", Obs.Span.Str machine_name);
    ]
  in
  let report, _dt =
    Obs.Span.timed ~attrs "layout.solve" (fun () ->
        let key =
          {
            token = reliability;
            scope = scope ~config ~machine_name ~day pr.Layout.Problem.objective;
            n_program = pr.Layout.Problem.n_program;
            pairs = pr.Layout.Problem.pairs;
            measured = pr.Layout.Problem.measured;
          }
        in
        let solved = ref None in
        (* The cache keeps its own copy of the placement and a hit hands
           out a fresh one, so no caller shares an array with the cache. *)
        let stored =
          Layout_memo.find_or_add cache key (fun () ->
              let r = run_strategy ~config pr in
              solved := Some r;
              { r with Layout.Report.placement = Array.copy r.Layout.Report.placement })
        in
        match !solved with
        | Some r -> { r with Layout.Report.cache = Layout.Report.Miss }
        | None ->
          {
            stored with
            Layout.Report.placement = Array.copy stored.Layout.Report.placement;
            work = Layout.Report.no_work;
            cache = Layout.Report.Hit;
          })
  in
  report

let cache_clear () = Layout_memo.clear cache

let cache_stats () = Layout_memo.stats cache
