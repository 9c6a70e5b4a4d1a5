module Span = Obs.Span

type t = {
  machine : Device.Machine.t;
  program : Programs.t;
  compiler : Triq.Pass.Schedule.t;
  config : Triq.Pass.Config.t;
  sim : Sim.Runner.Config.t option;
}

type 'a row = { bench : string; values : (string * 'a option) list }

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

let run project c =
  Span.with_span ~attrs:(attrs c) "bench_kit.cell" (fun () ->
      let p = c.program in
      if not (Device.Machine.fits c.machine p.Programs.circuit) then None
      else
        let compiled =
          Triq.Pipeline.compile_schedule ~config:c.config c.machine p.Programs.circuit c.compiler
        in
        let outcome =
          Option.map (fun config -> Sim.Runner.simulate ~config compiled p.Programs.spec) c.sim
        in
        Some (project compiled outcome))

(* Pair each name in [named] with the next value, returning the values
   left over. *)
let take vals named =
  List.fold_left_map
    (fun vals (name, _) ->
      match vals with v :: rest -> (rest, (name, v)) | [] -> assert false)
    vals named

let run_cells project groups =
  let cells =
    List.concat_map (fun (_, rows) -> List.concat_map (fun (_, cs) -> List.map snd cs) rows) groups
  in
  let vals = Parallel.Pool.map (Parallel.Pool.default ()) (run project) cells in
  snd
    (List.fold_left_map
       (fun vals (name, rows) ->
         let vals, rows =
           List.fold_left_map
             (fun vals (bench, cs) ->
               let vals, values = take vals cs in
               (vals, { bench; values }))
             vals rows
         in
         (vals, (name, rows)))
       vals groups)
