module Machine = Device.Machine
module Check = Analysis.Check

type level = Pass.level = N | OneQOpt | OneQOptC | OneQOptCN

let all_levels = Pass.all_levels

type t = Compiled.t = {
  machine : Machine.t;
  compiler : string;
  day : int;
  hardware : Ir.Circuit.t;
  initial_placement : int array;
  final_placement : int array;
  readout_map : (int * int) list;
  swap_count : int;
  two_q_count : int;
  pulse_count : int;
  flipped_cnots : int;
  esp : float;
  layout : Layout.Report.t option;
  compile_time_s : float;
  pass_times_s : (string * float) list;
}

(* The statistics below are defined only on software-visible gates over
   coupled pairs; a partial schedule that stops short of that fails here
   with a diagnostic rather than inside the ESP or pulse count. *)
let require_executable (s : Pass.state) =
  let gates = s.Pass.circuit.Ir.Circuit.gates in
  match
    Check.gateset ~layer:"pipeline" s.Pass.machine.Machine.basis gates
    @ Check.coupling ~layer:"pipeline" s.Pass.machine.Machine.topology gates
  with
  | [] -> ()
  | d :: _ ->
    Analysis.Diag.invalid ~rule:d.Analysis.Diag.rule ~layer:d.Analysis.Diag.layer
      ~loc:d.Analysis.Diag.loc "%s" d.Analysis.Diag.message

let compile_schedule ?(config = Pass.Config.default) machine circuit
    (schedule : Pass.Schedule.t) =
  Obs.Metrics.incr (Obs.Metrics.counter "triq.compile.count");
  let (s, pass_times_s), compile_time_s =
    Obs.Span.timed
      ~attrs:
        [
          ("machine", Obs.Span.Str machine.Machine.name);
          ("schedule", Obs.Span.Str schedule.Pass.Schedule.name);
          ("day", Obs.Span.Int config.Pass.Config.day);
        ]
      "compile"
      (fun () ->
        Pass.run_passes (Pass.init ~config machine circuit) schedule.Pass.Schedule.passes)
  in
  require_executable s;
  let hardware = s.Pass.circuit in
  {
    machine;
    compiler = schedule.Pass.Schedule.name;
    day = config.Pass.Config.day;
    hardware;
    initial_placement = s.Pass.initial_placement;
    final_placement = s.Pass.final_placement;
    readout_map = s.Pass.readout_map;
    swap_count = s.Pass.swap_count;
    two_q_count = Ir.Circuit.two_q_count hardware;
    pulse_count = Device.Gateset.circuit_pulse_count machine.Machine.basis hardware;
    flipped_cnots = s.Pass.flipped_cnots;
    esp = Compiled.estimated_success_probability machine s.Pass.calibration hardware;
    layout = s.Pass.layout;
    compile_time_s;
    pass_times_s;
  }

let compile_level ?(config = Pass.Config.default) machine circuit ~level =
  compile_schedule ~config machine circuit (Pass.Schedule.of_level ~config level)

let to_compiled t = t
