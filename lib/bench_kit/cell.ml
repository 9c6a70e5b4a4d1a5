module Span = Obs.Span

type t = {
  machine : Device.Machine.t;
  program : Programs.t;
  compiler : Triq.Pass.Schedule.t;
  config : Triq.Pass.Config.t;
  sim : Sim.Runner.Config.t option;
}

type 'a row = { bench : string; values : (string * 'a option) list }

(* A grid with its value type hidden: each cell with the function that
   projects its result into the cell's slot, and the function that hands
   the filled grid to its receiver. *)
type request = {
  cells : (t * (Triq.Compiled.t -> Sim.Runner.outcome option -> unit)) list;
  return : unit -> unit;
}

let attrs c =
  let flag cond attr = if cond then [ attr ] else [] in
  let config = c.config in
  let run =
    match c.sim with
    | None -> [ ("trajectories", Span.Str "compile-only") ]
    | Some s -> (
      ("trajectories", Span.Int s.Sim.Runner.Config.trajectories)
      :: (match s.Sim.Runner.Config.day with Some d -> [ ("run_day", Span.Int d) ] | None -> [])
      @ flag s.Sim.Runner.Config.explicit_t1 ("explicit_t1", Span.Bool true))
  in
  ("machine", Span.Str c.machine.Device.Machine.name)
  :: ("compiler", Span.Str c.compiler.Triq.Pass.Schedule.name)
  :: ("benchmark", Span.Str c.program.Programs.name)
  :: ("day", Span.Int config.Triq.Pass.Config.day)
  :: flag
       (config.Triq.Pass.Config.router = Triq.Pass.Config.Lookahead)
       ("router", Span.Str (Triq.Pass.Config.router_name config.Triq.Pass.Config.router))
  @ flag config.Triq.Pass.Config.peephole ("peephole", Span.Bool true)
  @ run

(* The compile key: schedules hold closures, so a schedule is its name
   and pass list. *)
let same_compile a b =
  a.machine == b.machine
  && a.compiler.Triq.Pass.Schedule.name = b.compiler.Triq.Pass.Schedule.name
  && a.config = b.config && a.program = b.program
  && Triq.Pass.Schedule.pass_names a.compiler = Triq.Pass.Schedule.pass_names b.compiler

(* The runner key: the day a run happens under (the cell's compile day
   unless the runner names one), and a pool compared physically. *)
let same_run a b =
  let key c =
    Option.map
      (fun (s : Sim.Runner.Config.t) ->
        let day = Option.value ~default:c.config.Triq.Pass.Config.day s.day in
        (s.pool, { s with pool = None; day = Some day }))
      c.sim
  in
  Option.equal (fun (p, x) (q, y) -> Option.equal ( == ) p q && x = y) (key a) (key b)

(* [cells] grouped by [same], in first-appearance order. *)
let rec group same = function
  | [] -> []
  | (c, _) :: _ as cells ->
    let mine, rest = List.partition (fun (c', _) -> same c c') cells in
    mine :: group same rest

(* One compile key: fits-check and compile once, simulate each distinct
   runner config once, and project for every cell that asked. Only the
   projected values outlive the task, in their slots. *)
let run_key cells =
  let { machine; program = p; compiler; config; _ } = fst (List.hd cells) in
  let circuit = p.Programs.circuit in
  let fits = Device.Machine.fits machine circuit in
  let compiled = lazy (Triq.Pipeline.compile_schedule ~config machine circuit compiler) in
  List.iter
    (fun cells ->
      let c = fst (List.hd cells) in
      Span.with_span ~attrs:(attrs c) "bench_kit.cell" (fun () ->
          if fits then
            let compiled = Lazy.force compiled in
            let outcome =
              Option.map (fun config -> Sim.Runner.simulate ~config compiled p.Programs.spec) c.sim
            in
            List.iter (fun (_, fill) -> fill compiled outcome) cells))
    (group same_run cells)

(* [f] applied to every named cell of [groups]. *)
let map_cells f groups =
  List.map (fun (name, rows) -> (name, List.map (fun (b, cs) -> (b, List.map f cs)) rows)) groups

let request project groups receive =
  let slots = map_cells (fun (col, c) -> (col, c, ref None)) groups in
  let fill slot compiled outcome = slot := Some (project compiled outcome) in
  let to_row (name, rows) = (name, List.map (fun (bench, values) -> { bench; values }) rows) in
  {
    cells =
      List.concat_map (fun (_, rows) -> List.concat_map snd rows)
        (map_cells (fun (_, c, s) -> (c, fill s)) slots);
    return = (fun () -> receive (List.map to_row (map_cells (fun (col, _, s) -> (col, !s)) slots)));
  }

let run_batch requests =
  (* A batch without cells leaves the pool unspawned. *)
  (match group same_compile (List.concat_map (fun r -> r.cells) requests) with
  | [] -> ()
  | keys -> ignore (Parallel.Pool.map (Parallel.Pool.default ()) run_key keys));
  List.iter (fun r -> r.return ()) requests

let run_cells project groups =
  let result = ref [] in
  run_batch [ request project groups (( := ) result) ];
  !result
