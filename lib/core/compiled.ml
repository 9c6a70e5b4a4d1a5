module Machine = Device.Machine
module Calibration = Device.Calibration
module Gateset = Device.Gateset

type t = {
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

let estimated_success_probability machine calibration (c : Ir.Circuit.t) =
  let basis = machine.Machine.basis in
  List.fold_left
    (fun acc g ->
      match (g : Ir.Gate.t) with
      | One (k, q) ->
        if Gateset.is_error_free basis k then acc
        else acc *. (1.0 -. Calibration.one_q_err calibration q)
      | Two (_, a, b) -> acc *. (1.0 -. Calibration.two_q_err calibration a b)
      | Measure q -> acc *. (1.0 -. Calibration.readout_err calibration q)
      | Ccx _ | Cswap _ -> invalid_arg "Compiled.esp: not flattened")
    1.0 c.Ir.Circuit.gates

type error_budget = { two_q : float; one_q : float; readout : float }

let error_budget machine calibration (c : Ir.Circuit.t) =
  let basis = machine.Machine.basis in
  List.fold_left
    (fun acc g ->
      match (g : Ir.Gate.t) with
      | One (k, q) ->
        if Gateset.is_error_free basis k then acc
        else { acc with one_q = acc.one_q *. (1.0 -. Calibration.one_q_err calibration q) }
      | Two (_, a, b) ->
        { acc with two_q = acc.two_q *. (1.0 -. Calibration.two_q_err calibration a b) }
      | Measure q ->
        { acc with readout = acc.readout *. (1.0 -. Calibration.readout_err calibration q) }
      | Ccx _ | Cswap _ -> invalid_arg "Compiled.error_budget: not flattened")
    { two_q = 1.0; one_q = 1.0; readout = 1.0 }
    c.Ir.Circuit.gates

let budget_of t =
  error_budget t.machine (Machine.calibration t.machine ~day:t.day) t.hardware
