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
   objective, budget, machine, day). Equality checks the full canonical
   form, so canonicalization incompleteness can only cost a hit. Stored
   placements are in canonical labels, so a hit from a relabeled circuit
   is translated through its own permutation. *)

type layout_key = { token : Reliability.t; scope : string; canon : Layout.Canon.t }

module Layout_memo = Parallel.Memo.Make (struct
  type t = layout_key

  let equal a b =
    a.token == b.token && a.scope = b.scope
    && Layout.Canon.equal_form a.canon.Layout.Canon.form b.canon.Layout.Canon.form

  let hash k = Hashtbl.hash (k.scope, k.canon.Layout.Canon.hash)
end)

let cache : Layout.Report.t Layout_memo.t =
  Layout_memo.create ~name:"layout.cache" ~capacity:512

(* Canonicalization dominates the cost of a cache hit: WL refinement with
   individualization spends its full budget on symmetric interaction
   graphs (stars, cycles). Memoize it on the raw interaction structure so
   repeated compiles of the same circuit — the sweep drivers' common
   case — skip straight to the cached form, while relabeled circuits miss
   here and fall through to the full canonization. Keyed structurally, so
   this can never alias two different placement problems. *)
module Canon_memo = Parallel.Memo.Make (struct
  type t = int * ((int * int) * int) list * int list

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

let canon_memo : Layout.Canon.t Canon_memo.t =
  Canon_memo.create ~name:"layout.canon" ~capacity:512

let canon_of_problem (pr : Layout.Problem.t) =
  Canon_memo.find_or_add canon_memo
    (pr.Layout.Problem.n_program, pr.Layout.Problem.pairs, pr.Layout.Problem.measured)
    (fun () -> Layout.Canon.of_problem pr)

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
        let canon = canon_of_problem pr in
        let perm = canon.Layout.Canon.perm in
        let scope = scope ~config ~machine_name ~day pr.Layout.Problem.objective in
        let solved = ref None in
        let stored =
          Layout_memo.find_or_add cache { token = reliability; scope; canon } (fun () ->
              let r = run_strategy ~config pr in
              solved := Some r;
              let canonical = Array.make (Array.length perm) (-1) in
              Array.iteri (fun p h -> canonical.(perm.(p)) <- h) r.Layout.Report.placement;
              { r with Layout.Report.placement = canonical })
        in
        match !solved with
        | Some r -> { r with Layout.Report.cache = Layout.Report.Miss }
        | None ->
          let placement = Array.map (fun l -> stored.Layout.Report.placement.(l)) perm in
          let objective, log_product = Layout.Problem.evaluate pr placement in
          {
            stored with
            Layout.Report.placement;
            objective;
            log_product;
            work = Layout.Report.no_work;
            cache = Layout.Report.Hit;
          })
  in
  report

let cache_clear () =
  Layout_memo.clear cache;
  Canon_memo.clear canon_memo

let cache_stats () = Layout_memo.stats cache
