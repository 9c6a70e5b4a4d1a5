module Json = Obs.Json

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let interface_name = function
  | Gateset.Ibm_visible -> "ibm"
  | Gateset.Rigetti_visible -> "rigetti"
  | Gateset.Rigetti_parametric_visible -> "rigetti-parametric"
  | Gateset.Umd_visible -> "umd"

let interface_of_name = function
  | "ibm" -> Gateset.Ibm_visible
  | "rigetti" -> Gateset.Rigetti_visible
  | "rigetti-parametric" -> Gateset.Rigetti_parametric_visible
  | "umd" -> Gateset.Umd_visible
  | other -> fail "unknown interface %S (ibm, rigetti, rigetti-parametric, umd)" other

let to_json (m : Machine.t) =
  let p = m.Machine.profile in
  Json.Obj
    [
      ("name", Json.Str m.Machine.name);
      ("interface", Json.Str (interface_name m.Machine.basis));
      ("qubits", Json.Int (Topology.n_qubits m.Machine.topology));
      ("directed", Json.Bool (Topology.directed m.Machine.topology));
      ( "edges",
        Json.List
          (List.map
             (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ])
             (Topology.edges m.Machine.topology)) );
      ("seed", Json.Int m.Machine.seed);
      ( "profile",
        Json.Obj
          [
            ("one_q_err", Json.Float p.Calibration.avg_one_q_err);
            ("two_q_err", Json.Float p.Calibration.avg_two_q_err);
            ("readout_err", Json.Float p.Calibration.avg_readout_err);
            ("coherence_us", Json.Float p.Calibration.coherence_us);
            ("one_q_time_us", Json.Float p.Calibration.one_q_time_us);
            ("two_q_time_us", Json.Float p.Calibration.two_q_time_us);
            ("spatial_sigma", Json.Float p.Calibration.spatial_sigma);
            ("temporal_sigma", Json.Float p.Calibration.temporal_sigma);
          ] );
    ]

let of_json json =
  try
    let name = Json.to_str (Json.member "name" json) in
    let basis = interface_of_name (Json.to_str (Json.member "interface" json)) in
    let qubits = Json.to_int (Json.member "qubits" json) in
    if qubits > Ir.Circuit.max_qubits then
      fail "qubits = %d exceeds the bound of %d (Ir.Circuit.max_qubits)" qubits
        Ir.Circuit.max_qubits;
    let directed =
      match Json.member_opt "directed" json with
      | Some v -> Json.to_bool v
      | None -> false
    in
    let edges =
      List.map
        (fun pair ->
          match Json.to_list pair with
          | [ a; b ] -> (Json.to_int a, Json.to_int b)
          | _ -> fail "each edge must be a two-element array")
        (Json.to_list (Json.member "edges" json))
    in
    let seed =
      match Json.member_opt "seed" json with Some v -> Json.to_int v | None -> 1
    in
    let p = Json.member "profile" json in
    let field name = Json.to_float (Json.member name p) in
    let rate name =
      let v = field name in
      if v < 0.0 || v > 1.0 then fail "profile.%s out of [0, 1]" name;
      v
    in
    let positive name =
      let v = field name in
      if v <= 0.0 then fail "profile.%s must be positive" name;
      v
    in
    let nonneg name =
      let v = field name in
      if v < 0.0 then fail "profile.%s must be non-negative" name;
      v
    in
    let profile =
      {
        Calibration.avg_one_q_err = rate "one_q_err";
        avg_two_q_err = rate "two_q_err";
        avg_readout_err = rate "readout_err";
        coherence_us = positive "coherence_us";
        one_q_time_us = positive "one_q_time_us";
        two_q_time_us = positive "two_q_time_us";
        spatial_sigma = nonneg "spatial_sigma";
        temporal_sigma = nonneg "temporal_sigma";
        two_q_scale = None;
      }
    in
    let topology =
      try Topology.create qubits edges ~directed
      with Invalid_argument msg -> fail "bad topology: %s" msg
    in
    try Machine.create ~name ~basis ~topology ~profile ~seed
    with Invalid_argument msg -> fail "bad machine: %s" msg
  with Invalid_argument msg -> raise (Error msg)

let of_string s =
  match Json.parse s with
  | json -> of_json json
  | exception Json.Parse_error (msg, pos) -> fail "JSON error at offset %d: %s" pos msg

let to_string m = Json.to_string ~pretty:true (to_json m) ^ "\n"

let of_file path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string source

let to_file path m =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string m))
