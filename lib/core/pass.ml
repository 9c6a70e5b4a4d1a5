module Machine = Device.Machine
module Calibration = Device.Calibration
module Gateset = Device.Gateset
module Check = Analysis.Check

type level = N | OneQOpt | OneQOptC | OneQOptCN

let all_levels = [ N; OneQOpt; OneQOptC; OneQOptCN ]

let level_name = function
  | N -> "TriQ-N"
  | OneQOpt -> "TriQ-1QOpt"
  | OneQOptC -> "TriQ-1QOptC"
  | OneQOptCN -> "TriQ-1QOptCN"

let level_of_string s =
  match String.lowercase_ascii s with
  | "n" | "triq-n" -> Some N
  | "1qopt" | "triq-1qopt" -> Some OneQOpt
  | "1qoptc" | "triq-1qoptc" -> Some OneQOptC
  | "1qoptcn" | "triq-1qoptcn" -> Some OneQOptCN
  | _ -> None

let level_strings =
  [ "n"; "1qopt"; "1qoptc"; "1qoptcn" ] @ List.map level_name all_levels

module Config = struct
  type router = Default | Lookahead
  type validation = Off | Shape | Deep

  type t = {
    day : int;
    layout : Layout.Config.t;
    router : router;
    peephole : bool;
    validate : validation;
  }

  let default =
    {
      day = 0;
      layout = Layout.Config.default;
      router = Default;
      peephole = false;
      validate = Off;
    }

  let make ?(day = 0) ?node_budget ?mapper ?layout ?(router = Default)
      ?(peephole = false) ?(validate = Off) () =
    let layout =
      match layout with
      | Some l -> l
      | None -> Layout.Config.make ?strategy:mapper ?node_budget ()
    in
    { day; layout; router; peephole; validate }

  let router_name = function Default -> "default" | Lookahead -> "lookahead"

  let router_of_string s =
    match String.lowercase_ascii s with
    | "default" -> Some Default
    | "lookahead" -> Some Lookahead
    | _ -> None

  let router_names = [ "default"; "lookahead" ]

  let validation_name = function Off -> "off" | Shape -> "shape" | Deep -> "deep"

  let validation_of_string s =
    match String.lowercase_ascii s with
    | "off" -> Some Off
    | "shape" -> Some Shape
    | "deep" -> Some Deep
    | _ -> None

  let validation_names = [ "off"; "shape"; "deep" ]
end

type state = {
  machine : Machine.t;
  config : Config.t;
  calibration : Calibration.t;
  program : Ir.Circuit.t;
  circuit : Ir.Circuit.t;
  flat : Ir.Circuit.t;
  reliability : Reliability.t option;
  initial_placement : int array;
  final_placement : int array;
  layout : Layout.Report.t option;
  swap_count : int;
  flipped_cnots : int;
  readout_map : (int * int) list;
}

type t = {
  name : string;
  about : string;
  optional : bool;
  run : state -> state;
  checks : state -> Analysis.Diag.t list list;
}

let make ~name ?(about = "") ?(optional = true) ?(checks = fun _ -> []) run =
  { name; about; optional; run; checks }

let reliability_exn s =
  match s.reliability with
  | Some r -> r
  | None ->
    invalid_arg "Pass: reliability matrix required but the reliability pass did not run"

(* -- the built-in catalog -- *)

let flatten =
  {
    name = "flatten";
    about = "decompose Toffoli/Fredkin into the 1Q + CNOT IR";
    optional = false;
    run =
      (fun s ->
        let flat = Ir.Decompose.flatten s.circuit in
        { s with circuit = flat; flat });
    checks =
      (fun s ->
        let gates = s.circuit.Ir.Circuit.gates in
        [
          Check.qubit_bounds ~n_qubits:s.circuit.Ir.Circuit.n_qubits ~layer:"flatten"
            gates;
          Check.operand_distinct ~layer:"flatten" gates;
          Check.flattened ~layer:"flatten" gates;
          Check.measure_once ~layer:"flatten" gates;
          Check.measure_order ~layer:"flatten" gates;
        ]);
  }

let reliability ~noise_aware =
  {
    name = "reliability";
    about =
      (if noise_aware then
         "reliability matrix from the day's calibration (noise-aware)"
       else "reliability matrix from device-average error rates");
    optional = false;
    run =
      (fun s ->
        {
          s with
          reliability =
            Some
              (Reliability.of_calibration ~noise_aware s.machine.Machine.topology
                 s.calibration);
        });
    checks = (fun _ -> []);
  }

let placement_checks what s =
  [
    Check.placement ~layer:"mapping" ~what ~n_hardware:(Machine.n_qubits s.machine)
      s.initial_placement;
  ]

let mapping_trivial =
  {
    name = "mapping";
    about = "identity qubit placement (levels N / 1QOpt)";
    optional = true;
    run =
      (fun s ->
        {
          s with
          initial_placement =
            Placement.trivial ~n_program:s.circuit.Ir.Circuit.n_qubits
              ~n_hardware:(Machine.n_qubits s.machine);
          layout = None;
        });
    checks = placement_checks "initial placement";
  }

let mapping_solver =
  {
    name = "mapping";
    about = "max-min reliability placement via the layout engine (1QOptC/CN)";
    optional = true;
    run =
      (fun s ->
        let r =
          Placement.solve ~config:s.config.Config.layout
            ~reliability:(reliability_exn s)
            ~machine_name:s.machine.Machine.name s.circuit
        in
        {
          s with
          initial_placement = r.Layout.Report.placement;
          layout = Some r;
        });
    checks = placement_checks "initial placement";
  }

let routing_checks s =
  let gates = s.circuit.Ir.Circuit.gates in
  let topology = s.machine.Machine.topology in
  [
    Check.qubit_bounds ~n_qubits:(Machine.n_qubits s.machine) ~layer:"routing" gates;
    Check.operand_distinct ~layer:"routing" gates;
    Check.flattened ~layer:"routing" gates;
    Check.coupling ~layer:"routing" topology gates;
    Check.measure_once ~layer:"routing" gates;
    Check.measure_order ~layer:"routing" gates;
    Check.placement ~layer:"routing" ~what:"final placement"
      ~n_hardware:(Machine.n_qubits s.machine) s.final_placement;
  ]

let routing_with about route =
  {
    name = "routing";
    about;
    optional = false;
    run =
      (fun s ->
        let routed = route s ~placement:s.initial_placement s.circuit in
        {
          s with
          circuit = routed.Router.circuit;
          final_placement = routed.Router.final_placement;
          swap_count = routed.Router.swap_count;
        });
    checks = routing_checks;
  }

let routing_default =
  routing_with "reliability-path SWAP insertion (per-gate optimal)" (fun s ->
      Router.route (reliability_exn s) s.machine.Machine.topology)

let routing_lookahead =
  routing_with "reliability-path SWAP insertion with lookahead" (fun s ->
      Router.route_lookahead (reliability_exn s) s.machine.Machine.topology)

let routing = function
  | Config.Default -> routing_default
  | Config.Lookahead -> routing_lookahead

let expansion_checks layer s =
  let gates = s.circuit.Ir.Circuit.gates in
  let topology = s.machine.Machine.topology in
  [
    Check.coupling ~layer topology gates;
    Check.measure_once ~layer gates;
    Check.measure_order ~layer gates;
  ]

let swap_expansion_with about expand =
  {
    name = "swap-expansion";
    about;
    optional = false;
    run =
      (fun s ->
        let expanded = expand s in
        {
          s with
          circuit = expanded;
          flipped_cnots = Direction.flipped_count s.machine.Machine.topology expanded;
        });
    checks = expansion_checks "swap-expansion";
  }

let swap_expansion =
  swap_expansion_with "expand routed SWAPs in the machine's native basis"
    (fun s -> Translate.expand_swaps ~basis:s.machine.Machine.basis s.circuit)

let swap_expansion_generic =
  swap_expansion_with "expand routed SWAPs as generic 3-CNOT sequences"
    (fun s -> Translate.expand_swaps s.circuit)

let peephole =
  {
    name = "peephole";
    about = "cancel adjacent self-inverse 2Q pairs";
    optional = true;
    run = (fun s -> { s with circuit = Peephole.cancel_two_q s.circuit });
    checks = expansion_checks "peephole";
  }

let orientation =
  {
    name = "orientation";
    about = "repair CNOT direction on directed couplings";
    optional = true;
    run = (fun s -> { s with circuit = Direction.fix s.machine.Machine.topology s.circuit });
    checks =
      (fun s ->
        let gates = s.circuit.Ir.Circuit.gates in
        let topology = s.machine.Machine.topology in
        [
          Check.direction ~layer:"orientation" topology gates;
          Check.coupling ~layer:"orientation" topology gates;
        ]);
  }

let translation =
  {
    name = "translation";
    about = "rewrite 2Q gates into the software-visible set";
    optional = false;
    run =
      (fun s ->
        { s with circuit = Translate.two_q_to_visible s.machine.Machine.basis s.circuit });
    checks = expansion_checks "translation";
  }

let oneq_checks s =
  let gates = s.circuit.Ir.Circuit.gates in
  let topology = s.machine.Machine.topology in
  [
    Check.qubit_bounds ~n_qubits:(Machine.n_qubits s.machine) ~layer:"translation" gates;
    Check.gateset ~layer:"translation" s.machine.Machine.basis gates;
    Check.coupling ~layer:"translation" topology gates;
    Check.direction ~layer:"translation" topology gates;
    Check.measure_once ~layer:"translation" gates;
    Check.measure_order ~layer:"translation" gates;
  ]

let oneq_naive =
  {
    name = "oneq";
    about = "naive gate-by-gate 1Q translation (level N)";
    optional = false;
    run = (fun s -> { s with circuit = Oneq_opt.naive s.machine.Machine.basis s.circuit });
    checks = oneq_checks;
  }

let oneq_coalesce =
  {
    name = "oneq";
    about = "quaternion-based 1Q coalescing";
    optional = false;
    run =
      (fun s -> { s with circuit = Oneq_opt.optimize s.machine.Machine.basis s.circuit });
    checks = oneq_checks;
  }

let readout =
  {
    name = "readout";
    about = "measured program qubit -> hardware qubit map at final placement";
    optional = false;
    run =
      (fun s ->
        {
          s with
          readout_map =
            List.map
              (fun p -> (p, s.final_placement.(p)))
              (Ir.Circuit.measured_qubits s.flat);
        });
    checks =
      (fun s ->
        [
          Check.check_executable
            {
              Check.machine = s.machine;
              hardware = s.circuit;
              initial_placement = s.initial_placement;
              final_placement = s.final_placement;
              readout_map = s.readout_map;
              measured = Some (Ir.Circuit.measured_qubits s.flat);
              two_q_count = Ir.Circuit.two_q_count s.circuit;
              pulse_count =
                Gateset.circuit_pulse_count s.machine.Machine.basis s.circuit;
              esp =
                Compiled.estimated_success_probability s.machine s.calibration
                  s.circuit;
            };
        ]);
  }

let catalog =
  [
    ("flatten", "decompose Toffoli/Fredkin into the 1Q + CNOT IR");
    ("reliability", "build the reliability matrix (calibration or device-average)");
    ("mapping", "place program qubits on hardware (identity or layout engine)");
    ("routing", "insert SWAPs along most-reliable paths");
    ("swap-expansion", "expand SWAPs into native 2Q sequences");
    ("peephole", "cancel adjacent self-inverse 2Q pairs");
    ("orientation", "repair CNOT direction on directed couplings");
    ("translation", "rewrite 2Q gates into the software-visible set");
    ("oneq", "translate/coalesce 1Q gates (naive or quaternion)");
    ("readout", "build the measured-qubit readout map");
  ]

let catalog_names = List.map fst catalog

let pass_of_name ~config ~level name =
  match String.lowercase_ascii name with
  | "flatten" -> Ok flatten
  | "reliability" ->
    Ok (reliability ~noise_aware:(match level with OneQOptCN -> true | _ -> false))
  | "mapping" -> (
    match level with
    | N | OneQOpt -> Ok mapping_trivial
    | OneQOptC | OneQOptCN -> Ok mapping_solver)
  | "routing" -> Ok (routing config.Config.router)
  | "swap-expansion" -> Ok swap_expansion
  | "peephole" -> Ok peephole
  | "orientation" -> Ok orientation
  | "translation" -> Ok translation
  | "oneq" -> (
    match level with N -> Ok oneq_naive | _ -> Ok oneq_coalesce)
  | "readout" -> Ok readout
  | _ ->
    Error
      (Printf.sprintf "unknown pass %S (valid: %s)" name
         (String.concat ", " catalog_names))

let optional_names =
  List.filter
    (fun name ->
      List.for_all
        (fun level ->
          match pass_of_name ~config:Config.default ~level name with
          | Ok p -> p.optional
          | Error _ -> false)
        all_levels)
    catalog_names

module Schedule = struct
  type pass = t

  type t = { name : string; passes : pass list }

  let pass_names t = List.map (fun (p : pass) -> p.name) t.passes

  let disable t name =
    let name = String.lowercase_ascii name in
    match List.find_opt (fun (p : pass) -> p.name = name) t.passes with
    | None ->
      Error
        (Printf.sprintf "pass %S is not in schedule %s (passes: %s)" name t.name
           (String.concat ", " (pass_names t)))
    | Some p when not p.optional ->
      Error (Printf.sprintf "pass %S is required and cannot be disabled" name)
    | Some _ ->
      Ok { t with passes = List.filter (fun (p : pass) -> p.name <> name) t.passes }

  let make ?(config = Config.default) ~level names =
    let rec resolve acc = function
      | [] -> Ok { name = level_name level; passes = List.rev acc }
      | n :: rest -> (
        match pass_of_name ~config ~level n with
        | Ok p -> resolve (p :: acc) rest
        | Error _ as e -> e)
    in
    match names with
    | [] -> Error "empty schedule: at least one pass is required"
    | _ -> resolve [] names

  let of_level ?(config = Config.default) level =
    let names =
      [ "flatten"; "reliability"; "mapping"; "routing"; "swap-expansion" ]
      @ (if config.Config.peephole then [ "peephole" ] else [])
      @ [ "orientation"; "translation"; "oneq"; "readout" ]
    in
    match make ~config ~level names with Ok t -> t | Error e -> invalid_arg e

  let all ?(config = Config.default) () =
    List.map (fun level -> of_level ~config level) all_levels
end

(* -- driver -- *)

let init ~config machine circuit =
  if not (Machine.fits machine circuit) then
    Analysis.Diag.invalid ~rule:"circuit.bounds" ~layer:"pipeline"
      "%d-qubit program does not fit %s (%d qubits)" circuit.Ir.Circuit.n_qubits
      machine.Machine.name (Machine.n_qubits machine);
  let trivial =
    Placement.trivial ~n_program:circuit.Ir.Circuit.n_qubits
      ~n_hardware:(Machine.n_qubits machine)
  in
  {
    machine;
    config;
    calibration = Machine.calibration machine ~day:config.Config.day;
    program = circuit;
    circuit;
    flat = circuit;
    reliability = None;
    initial_placement = trivial;
    final_placement = Array.copy trivial;
    layout = None;
    swap_count = 0;
    flipped_cnots = 0;
    readout_map = [];
  }

let guard pass diags =
  match List.concat diags with
  | [] -> ()
  | ds -> raise (Analysis.Diag.Violation (pass, List.sort_uniq Analysis.Diag.compare ds))

(* Every pass runs inside an [Obs] span; the returned wall-clock dt is
   the very same measurement the span records, so [pass_times_s] is a
   derived view of the trace rather than a second clock. *)
let run_pass state (p : t) =
  let state', dt =
    Obs.Span.timed
      ~attrs:[ ("pass", Obs.Span.Str p.name) ]
      ("pass." ^ p.name)
      (fun () -> p.run state)
  in
  Obs.Metrics.incr (Obs.Metrics.counter ("triq.pass.runs." ^ p.name));
  (match state.config.Config.validate with
  | Config.Off -> ()
  | Config.Shape -> guard p.name (p.checks state')
  | Config.Deep ->
      (* Shape rules plus translation validation: the pass's input and
         output circuits must agree on readout liveness and — when both
         are recognized Clifford — on their stabilizer tableaux, modulo
         the placement change the pass made. *)
      let deep =
        Dataflow.Validate.check ~layer:p.name ~before:state.circuit
          ~before_placement:state.final_placement ~after:state'.circuit
          ~after_placement:state'.final_placement
      in
      guard p.name (p.checks state' @ [ deep ]));
  (state', dt)

let run_passes state passes =
  let state, times =
    List.fold_left
      (fun (s, acc) (p : t) ->
        let s', dt = run_pass s p in
        (s', (p.name, dt) :: acc))
      (state, []) passes
  in
  (state, List.rev times)
