(* Device-layer tests: topology graphs, gate-set visibility and pulse
   accounting, calibration drift model, and the seven study machines. *)

module Topology = Device.Topology
module Gateset = Device.Gateset
module Calibration = Device.Calibration
module Machine = Device.Machine
module Machines = Device.Machines
module G = Ir.Gate
module Circuit = Ir.Circuit

(* ---------- Topology ---------- *)

let test_topology_line () =
  let t = Topology.line 4 in
  Alcotest.(check int) "edges" 3 (Topology.edge_count t);
  Alcotest.(check bool) "coupled" true (Topology.coupled t 1 2);
  Alcotest.(check bool) "not coupled" false (Topology.coupled t 0 3);
  Alcotest.(check int) "distance" 3 (Topology.hop_distance t 0 3);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (Topology.shortest_path t 0 3)

let test_topology_ring () =
  let t = Topology.ring 8 in
  Alcotest.(check int) "edges" 8 (Topology.edge_count t);
  Alcotest.(check int) "wraps" 1 (Topology.hop_distance t 0 7);
  Alcotest.(check int) "across" 4 (Topology.hop_distance t 0 4)

let test_topology_grid () =
  let t = Topology.grid 2 4 in
  Alcotest.(check int) "qubits" 8 (Topology.n_qubits t);
  Alcotest.(check int) "edges" 10 (Topology.edge_count t);
  Alcotest.(check bool) "vertical" true (Topology.coupled t 0 4);
  Alcotest.(check bool) "no diagonal" false (Topology.coupled t 0 5)

let test_topology_fully_connected () =
  let t = Topology.fully_connected 5 in
  Alcotest.(check int) "edges" 10 (Topology.edge_count t);
  Alcotest.(check bool) "flag" true (Topology.is_fully_connected t);
  Alcotest.(check bool) "line is not" false (Topology.is_fully_connected (Topology.line 3))

let test_topology_directed () =
  let t = Topology.create 2 [ (1, 0) ] ~directed:true in
  Alcotest.(check bool) "directed edge" true (Topology.has_directed_edge t 1 0);
  Alcotest.(check bool) "reverse missing" false (Topology.has_directed_edge t 0 1);
  Alcotest.(check bool) "coupled both ways" true (Topology.coupled t 0 1)

let test_topology_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "self loop" true
    (raises (fun () -> ignore (Topology.create 2 [ (0, 0) ] ~directed:false)));
  Alcotest.(check bool) "duplicate" true
    (raises (fun () -> ignore (Topology.create 2 [ (0, 1); (1, 0) ] ~directed:false)));
  Alcotest.(check bool) "out of range" true
    (raises (fun () -> ignore (Topology.create 2 [ (0, 5) ] ~directed:false)))

let test_topology_neighbors_sorted () =
  let t = Topology.create 4 [ (2, 0); (2, 3); (2, 1) ] ~directed:false in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3 ] (Topology.neighbors t 2);
  Alcotest.(check int) "degree" 3 (Topology.degree t 2)

let test_topology_disconnected () =
  let t = Topology.create 4 [ (0, 1); (2, 3) ] ~directed:false in
  Alcotest.(check bool) "not connected" false (Topology.is_connected t);
  Alcotest.(check bool) "distance raises" true
    (try ignore (Topology.hop_distance t 0 3); false with Not_found -> true)

let test_topology_heavy_hex () =
  let t = Topology.heavy_hex 3 in
  Alcotest.(check int) "qubits" 14 (Topology.n_qubits t);
  Alcotest.(check bool) "connected" true (Topology.is_connected t);
  for q = 0 to Topology.n_qubits t - 1 do
    if Topology.degree t q > 3 then Alcotest.failf "degree %d at %d" (Topology.degree t q) q
  done;
  Alcotest.(check bool) "validation" true
    (try ignore (Topology.heavy_hex 0); false with Invalid_argument _ -> true)

let test_topology_metrics () =
  let line = Topology.line 5 in
  Alcotest.(check int) "line diameter" 4 (Topology.diameter line);
  Alcotest.(check (float 1e-9)) "pair average" 2.0 (Topology.average_distance line);
  Alcotest.(check int) "full graph diameter" 1
    (Topology.diameter (Topology.fully_connected 4));
  (* Richer connectivity means smaller average distance: the Figure 12
     topology story in one number. *)
  Alcotest.(check bool) "full < line" true
    (Topology.average_distance (Topology.fully_connected 5)
    < Topology.average_distance (Topology.line 5))

(* ---------- Gateset ---------- *)

let test_gateset_visibility () =
  Alcotest.(check bool) "ibm u3" true
    (Gateset.one_q_visible Gateset.Ibm_visible (G.U3 (0.1, 0.2, 0.3)));
  Alcotest.(check bool) "ibm h invisible" false
    (Gateset.one_q_visible Gateset.Ibm_visible G.H);
  Alcotest.(check bool) "rigetti rx half pi" true
    (Gateset.one_q_visible Gateset.Rigetti_visible (G.Rx (Float.pi /. 2.0)));
  Alcotest.(check bool) "rigetti rx other" false
    (Gateset.one_q_visible Gateset.Rigetti_visible (G.Rx 0.3));
  Alcotest.(check bool) "umd rxy" true
    (Gateset.one_q_visible Gateset.Umd_visible (G.Rxy (0.3, 0.4)));
  Alcotest.(check bool) "cnot ibm" true (Gateset.two_q_visible Gateset.Ibm_visible G.Cnot);
  Alcotest.(check bool) "cz not ibm" false (Gateset.two_q_visible Gateset.Ibm_visible G.Cz);
  Alcotest.(check bool) "xx quarter pi" true
    (Gateset.two_q_visible Gateset.Umd_visible (G.Xx (Float.pi /. 4.0)));
  Alcotest.(check bool) "xx other angle" false
    (Gateset.two_q_visible Gateset.Umd_visible (G.Xx 0.3))

let test_gateset_error_free () =
  Alcotest.(check bool) "ibm u1" true (Gateset.is_error_free Gateset.Ibm_visible (G.U1 0.5));
  Alcotest.(check bool) "ibm u2" false
    (Gateset.is_error_free Gateset.Ibm_visible (G.U2 (0.5, 0.2)));
  Alcotest.(check bool) "rigetti rz" true
    (Gateset.is_error_free Gateset.Rigetti_visible (G.Rz 0.5));
  Alcotest.(check bool) "umd rz" true (Gateset.is_error_free Gateset.Umd_visible (G.Rz 0.5))

let test_gateset_pulse_counts () =
  Alcotest.(check int) "u1" 0 (Gateset.native_pulse_count Gateset.Ibm_visible (G.U1 0.5));
  Alcotest.(check int) "u2" 1
    (Gateset.native_pulse_count Gateset.Ibm_visible (G.U2 (0.5, 0.1)));
  Alcotest.(check int) "u3" 2
    (Gateset.native_pulse_count Gateset.Ibm_visible (G.U3 (0.5, 0.1, 0.2)));
  Alcotest.(check int) "rigetti rx" 1
    (Gateset.native_pulse_count Gateset.Rigetti_visible (G.Rx (Float.pi /. 2.0)));
  Alcotest.(check int) "umd rxy" 1
    (Gateset.native_pulse_count Gateset.Umd_visible (G.Rxy (0.5, 0.1)));
  Alcotest.(check bool) "invisible raises" true
    (try ignore (Gateset.native_pulse_count Gateset.Ibm_visible G.H); false
     with Invalid_argument _ -> true)

let test_gateset_circuit_pulse_count () =
  let c =
    Circuit.create 2
      [ G.One (G.U1 0.1, 0); G.One (G.U3 (1.0, 0.0, 0.0), 1); G.Two (G.Cnot, 0, 1);
        G.Measure 0 ]
  in
  Alcotest.(check int) "total" 2 (Gateset.circuit_pulse_count Gateset.Ibm_visible c)

(* ---------- Calibration ---------- *)

let test_calibration_deterministic () =
  let topo = Topology.line 4 in
  let profile = Machines.ibmq14.Machine.profile in
  let a = Calibration.generate ~seed:1 ~day:3 topo profile in
  let b = Calibration.generate ~seed:1 ~day:3 topo profile in
  Alcotest.(check bool) "same snapshot" true
    (a.Calibration.one_q = b.Calibration.one_q
    && a.Calibration.two_q = b.Calibration.two_q)

let test_calibration_day_varies () =
  let topo = Topology.line 4 in
  let profile = Machines.ibmq14.Machine.profile in
  let a = Calibration.generate ~seed:1 ~day:0 topo profile in
  let b = Calibration.generate ~seed:1 ~day:1 topo profile in
  Alcotest.(check bool) "days differ" true
    (Calibration.two_q_err a 0 1 <> Calibration.two_q_err b 0 1)

let test_calibration_clamped () =
  let topo = Topology.line 4 in
  let profile = Machines.agave.Machine.profile in
  List.iter
    (fun day ->
      let cal = Calibration.generate ~seed:9 ~day topo profile in
      List.iter
        (fun (_, e) ->
          if e < 0.0 || e > 0.5 then Alcotest.failf "error out of range: %f" e)
        cal.Calibration.two_q)
    (List.init 50 (fun d -> d))

let test_calibration_mean_tracks_profile () =
  (* Averaged over many days/edges the drifted rates must stay within a
     factor ~1.5 of the profile average (log-normal bias tolerated). *)
  let topo = Topology.fully_connected 5 in
  let profile = Machines.umdti.Machine.profile in
  let all =
    List.concat_map
      (fun day ->
        let cal = Calibration.generate ~seed:4 ~day topo profile in
        List.map snd cal.Calibration.two_q)
      (List.init 100 (fun d -> d))
  in
  let mean = Mathkit.Stats.mean all in
  let ratio = mean /. profile.Calibration.avg_two_q_err in
  if ratio < 0.66 || ratio > 1.5 then Alcotest.failf "drift bias: %f" ratio

let test_calibration_superconducting_varies_more () =
  let spread profile =
    let topo = Topology.line 8 in
    let all =
      List.concat_map
        (fun day ->
          let cal = Calibration.generate ~seed:2 ~day topo profile in
          List.map snd cal.Calibration.two_q)
        (List.init 30 (fun d -> d))
    in
    Mathkit.Stats.maximum all /. Mathkit.Stats.minimum all
  in
  let sc = spread Machines.ibmq14.Machine.profile in
  let ion = spread Machines.umdti.Machine.profile in
  Alcotest.(check bool)
    (Printf.sprintf "sc %.1fx > ion %.1fx" sc ion)
    true (sc > ion);
  (* The paper reports up to 9x for superconducting 2Q errors. *)
  Alcotest.(check bool) (Printf.sprintf "sc spread %.1fx > 3x" sc) true (sc > 3.0)

let test_calibration_explicit_validation () =
  Alcotest.(check bool) "error > 1 rejected" true
    (try
       ignore
         (Calibration.explicit ~day:0 ~one_q:[| 1.5 |] ~two_q:[] ~readout:[| 0.0 |]);
       false
     with Invalid_argument _ -> true)

let test_calibration_missing_edge () =
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 3 0.01)
      ~two_q:[ ((0, 1), 0.05) ]
      ~readout:(Array.make 3 0.01)
  in
  Alcotest.(check bool) "raises" true
    (try ignore (Calibration.two_q_err cal 1 2); false with Not_found -> true);
  (* Symmetric lookup. *)
  Alcotest.(check (float 1e-12)) "reversed pair" 0.05 (Calibration.two_q_err cal 1 0)

(* ---------- Machines ---------- *)

let test_machines_inventory () =
  Alcotest.(check int) "seven machines" 7 (List.length Machines.all);
  let expect name qubits couplings =
    match Machines.find name with
    | None -> Alcotest.failf "missing machine %s" name
    | Some m ->
      Alcotest.(check int) (name ^ " qubits") qubits (Machine.n_qubits m);
      Alcotest.(check int)
        (name ^ " couplings")
        couplings
        (Topology.edge_count m.Machine.topology)
  in
  (* Figure 1's qubit and 2Q-coupling counts. *)
  expect "IBMQ5" 5 6;
  expect "IBMQ14" 14 18;
  expect "IBMQ16" 16 22;
  expect "Agave" 4 3;
  expect "Aspen1" 16 18;
  expect "Aspen3" 16 18;
  expect "UMDTI" 5 10

let test_machines_connected () =
  List.iter
    (fun m ->
      if not (Topology.is_connected m.Machine.topology) then
        Alcotest.failf "%s disconnected" m.Machine.name)
    Machines.all

let test_machines_umdti_fully_connected () =
  Alcotest.(check bool) "fully connected" true
    (Topology.is_fully_connected Machines.umdti.Machine.topology)

let test_machines_vendors () =
  Alcotest.(check string) "ibm" "IBM" (Gateset.vendor_name (Machine.vendor Machines.ibmq5));
  Alcotest.(check string) "rigetti" "Rigetti"
    (Gateset.vendor_name (Machine.vendor Machines.aspen1));
  Alcotest.(check string) "umd" "UMD" (Gateset.vendor_name (Machine.vendor Machines.umdti))

let test_machines_find_case_insensitive () =
  Alcotest.(check bool) "lowercase" true (Machines.find "ibmq14" <> None);
  Alcotest.(check bool) "unknown" true (Machines.find "nonesuch" = None)

let test_machines_fits () =
  let c5 = Circuit.empty 5 and c6 = Circuit.empty 6 in
  Alcotest.(check bool) "5 fits" true (Machine.fits Machines.ibmq5 c5);
  Alcotest.(check bool) "6 does not" false (Machine.fits Machines.ibmq5 c6)

let test_machines_duration () =
  let c =
    Circuit.create 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.One (G.H, 1) ]
  in
  let ibm = Machine.duration_us Machines.ibmq5 c in
  let umd = Machine.duration_us Machines.umdti c in
  Alcotest.(check bool) "positive" true (ibm > 0.0);
  Alcotest.(check bool) "ion slower clock" true (umd > ibm)

let test_machines_extended () =
  Alcotest.(check int) "tokyo qubits" 20 (Machine.n_qubits Machines.ibmq20);
  Alcotest.(check int) "tokyo couplings" 43
    (Topology.edge_count Machines.ibmq20.Machine.topology);
  Alcotest.(check bool) "tokyo connected" true
    (Topology.is_connected Machines.ibmq20.Machine.topology);
  Alcotest.(check int) "agave8 ring" 8
    (Topology.edge_count Machines.agave_full.Machine.topology);
  (* find resolves extended machines, but they stay out of [all]. *)
  Alcotest.(check bool) "find ibmq20" true (Machines.find "ibmq20" <> None);
  Alcotest.(check int) "all stays 7" 7 (List.length Machines.all)

let test_machines_example_8q () =
  Alcotest.(check int) "10 edges" 10
    (Topology.edge_count Machines.example_8q.Machine.topology);
  (* Edge 2-6 has reliability 0.7 in Figure 6, i.e. error 0.3. *)
  Alcotest.(check (float 1e-12)) "edge error" 0.3
    (Calibration.two_q_err Machines.example_8q_calibration 2 6);
  Alcotest.(check int) "bristlecone 72" 72
    (Machine.n_qubits (Machines.bristlecone 6 12))

(* ---------- Json / Machine_io ---------- *)

module Json = Obs.Json
module Machine_io = Device.Machine_io

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Float 1.5);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y" ]);
        ("c", Json.Obj [ ("nested", Json.Int 3) ]);
      ]
  in
  let text = Json.to_string ~pretty:true doc in
  Alcotest.(check bool) "roundtrip" true (Json.parse text = doc);
  (* Compact form too. *)
  Alcotest.(check bool) "compact roundtrip" true (Json.parse (Json.to_string doc) = doc)

let test_json_parse_basics () =
  Alcotest.(check bool) "int" true (Json.parse "42" = Json.Int 42);
  Alcotest.(check bool) "negative float" true (Json.parse "-2.5e1" = Json.Float (-25.0));
  Alcotest.(check bool) "integral float" true (Json.parse "5.0" = Json.Float 5.0);
  Alcotest.(check bool) "escapes" true (Json.parse {|"a\nb"|} = Json.Str "a\nb");
  Alcotest.(check bool) "every escape" true
    (Json.parse {|"\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00"|}
    = Json.Str "\"\\/\b\012\n\r\tA\xc3\xa9\xf0\x9f\x98\x80");
  Alcotest.(check bool) "empty containers" true
    (Json.parse "[{}, []]" = Json.List [ Json.Obj []; Json.List [] ])

let test_json_parse_errors () =
  let raises s = try ignore (Json.parse s); false with Json.Parse_error _ -> true in
  List.iter
    (fun (what, s) -> Alcotest.(check bool) what true (raises s))
    [
      ("trailing", "1 2");
      ("unterminated string", {|"abc|});
      ("bad literal", "nul");
      ("unclosed array", "[1, 2");
      ("trailing comma", "[1,]");
      ("leading zero", "01");
      ("bare dot", "1.");
      ("leading dot", ".5");
      ("plus sign", "+1");
      ("unknown escape", {|"\x"|});
      ("lone low surrogate", {|"\udc00"|});
      ("unpaired high surrogate", {|"\ud800x"|});
      ("high then non-low", {|"\ud800\u0041"|});
      ("short \\u", {|"\u12"|});
      ("raw control byte", "\"a\001b\"");
      ("raw newline", "\"a\nb\"");
    ]

let test_json_accessors () =
  let doc = Json.parse {|{"x": 3, "y": 5.0, "z": 2.5, "s": "hi", "flag": false, "l": [1]}|} in
  Alcotest.(check int) "int" 3 (Json.to_int (Json.member "x" doc));
  Alcotest.(check int) "integral float as int" 5 (Json.to_int (Json.member "y" doc));
  Alcotest.(check (float 0.)) "int as float" 3.0 (Json.to_float (Json.member "x" doc));
  Alcotest.(check bool) "fractional float is not an int" true
    (try ignore (Json.to_int (Json.member "z" doc)); false with Invalid_argument _ -> true);
  Alcotest.(check string) "string" "hi" (Json.to_str (Json.member "s" doc));
  Alcotest.(check bool) "bool" false (Json.to_bool (Json.member "flag" doc));
  Alcotest.(check int) "list" 1 (List.length (Json.to_list (Json.member "l" doc)));
  Alcotest.(check bool) "missing member" true
    (try ignore (Json.member "nope" doc); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "member_opt" true (Json.member_opt "nope" doc = None)

(* IBMQ5 as Python's json.dumps writes it (spaces after ':' and ',',
   non-ASCII and control characters as \u escapes), with integral
   members written as floats. *)
let python_style_machine =
  {|{"name": "A\u0001B \u00e9", "interface": "ibm", "qubits": 5.0, "directed": true, |}
  ^ {|"edges": [[1, 0], [2, 0], [2, 1], [3, 2], [3, 4], [4, 2]], "seed": 5, |}
  ^ {|"profile": {"one_q_err": 0.002, "two_q_err": 4.8e-2, "readout_err": 0.062, |}
  ^ {|"coherence_us": 40, "one_q_time_us": 0.05, "two_q_time_us": 0.3, |}
  ^ {|"spatial_sigma": 0.45, "temporal_sigma": 0.3}}|}

let test_machine_io_python_escapes () =
  let m = Machine_io.of_string python_style_machine in
  Alcotest.(check string) "decoded name" "A\001B \xc3\xa9" m.Machine.name;
  Alcotest.(check int) "qubits 5.0" 5 (Machine.n_qubits m);
  Alcotest.(check (float 0.)) "exponent" 0.048
    m.Machine.profile.Calibration.avg_two_q_err

let test_machine_io_nesting_bomb () =
  let bomb = String.make 1_000_000 '[' in
  let t0 = Sys.time () in
  let msg =
    match Machine_io.of_string bomb with
    | _ -> "accepted"
    | exception Machine_io.Error msg -> msg
  in
  let dt = Sys.time () -. t0 in
  Alcotest.(check string) "fails at the depth bound"
    "JSON error at offset 512: nesting deeper than 512 levels" msg;
  Alcotest.(check bool) (Printf.sprintf "fast (%.3f s)" dt) true (dt < 0.1)

let test_machine_io_control_bytes () =
  let ibmq5 = Machines.ibmq5 in
  let name = "a\001b\r\t\"\\" in
  let m =
    Machine.create ~name ~basis:ibmq5.Machine.basis ~topology:ibmq5.Machine.topology
      ~profile:ibmq5.Machine.profile ~seed:ibmq5.Machine.seed
  in
  let text = Machine_io.to_string m in
  String.iter
    (fun c ->
      if c <> '\n' && Char.code c < 0x20 then
        Alcotest.failf "raw control byte 0x%02x in %S" (Char.code c) text)
    text;
  Alcotest.(check string) "name round-trips" name
    (Machine_io.of_string text).Machine.name

let test_machine_io_roundtrip_all () =
  List.iter
    (fun m ->
      let m' = Machine_io.of_string (Machine_io.to_string m) in
      Alcotest.(check string) "name" m.Machine.name m'.Machine.name;
      Alcotest.(check int) "qubits" (Machine.n_qubits m) (Machine.n_qubits m');
      Alcotest.(check bool) "edges" true
        (Topology.edges m.Machine.topology = Topology.edges m'.Machine.topology);
      Alcotest.(check bool) "directed" true
        (Topology.directed m.Machine.topology = Topology.directed m'.Machine.topology);
      Alcotest.(check (float 1e-12)) "2q err"
        m.Machine.profile.Calibration.avg_two_q_err
        m'.Machine.profile.Calibration.avg_two_q_err;
      (* Calibration histories must be identical (same seed). *)
      let c = Machine.calibration m ~day:3 and c' = Machine.calibration m' ~day:3 in
      Alcotest.(check bool) "same calibration" true
        (c.Calibration.two_q = c'.Calibration.two_q))
    Machines.all

let test_machine_io_validation () =
  let raises s = try ignore (Machine_io.of_string s); false with Machine_io.Error _ -> true in
  Alcotest.(check bool) "bad json" true (raises "{");
  Alcotest.(check bool) "missing fields" true (raises "{}");
  Alcotest.(check bool) "bad interface" true
    (raises
       {|{"name":"x","interface":"dwave","qubits":2,"edges":[[0,1]],
          "profile":{"one_q_err":0.01,"two_q_err":0.02,"readout_err":0.03,
          "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
          "spatial_sigma":0.1,"temporal_sigma":0.1}}|});
  Alcotest.(check bool) "error rate over 1" true
    (raises
       {|{"name":"x","interface":"ibm","qubits":2,"edges":[[0,1]],
          "profile":{"one_q_err":1.5,"two_q_err":0.02,"readout_err":0.03,
          "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
          "spatial_sigma":0.1,"temporal_sigma":0.1}}|});
  Alcotest.(check bool) "disconnected topology" true
    (raises
       {|{"name":"x","interface":"ibm","qubits":4,"edges":[[0,1]],
          "profile":{"one_q_err":0.01,"two_q_err":0.02,"readout_err":0.03,
          "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
          "spatial_sigma":0.1,"temporal_sigma":0.1}}|});
  (* Device size is bounded like a program register: an oversized line is
     rejected before its topology is built, and the bound itself loads. *)
  let line n =
    Printf.sprintf
      {|{"name":"line","interface":"ibm","qubits":%d,"edges":[%s],
         "profile":{"one_q_err":0.01,"two_q_err":0.02,"readout_err":0.03,
         "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
         "spatial_sigma":0.1,"temporal_sigma":0.1}}|}
      n
      (String.concat "," (List.init (n - 1) (fun i -> Printf.sprintf "[%d,%d]" i (i + 1))))
  in
  let t0 = Sys.time () in
  let msg =
    match Machine_io.of_string (line 2000) with
    | _ -> "accepted"
    | exception Machine_io.Error msg -> msg
  in
  let dt = Sys.time () -. t0 in
  Alcotest.(check string) "2000 qubits rejected at the bound"
    "qubits = 2000 exceeds the bound of 1024 (Ir.Circuit.max_qubits)" msg;
  Alcotest.(check bool) (Printf.sprintf "rejected fast (%.3f s)" dt) true (dt < 1.0);
  Alcotest.(check int) "1024 qubits load" Ir.Circuit.max_qubits
    (Machine.n_qubits (Machine_io.of_string (line Ir.Circuit.max_qubits)))

let test_machine_io_usable_for_compilation () =
  (* A machine loaded from JSON drives the full pipeline. *)
  let m = Machine_io.of_string (Machine_io.to_string Machines.agave) in
  let p = Circuit.measure_all
      (Circuit.create 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ]) [ 0; 1 ] in
  let compiled = Triq.Pipeline.compile_level m p ~level:Triq.Pipeline.OneQOptCN in
  Alcotest.(check bool) "compiles" true (compiled.Triq.Compiled.two_q_count > 0)

(* qcheck: random ring machines roundtrip through JSON exactly. *)
let machine_gen =
  QCheck.Gen.(
    map3
      (fun n two_q seed ->
        Machine.create
          ~name:(Printf.sprintf "Rand%d" n)
          ~basis:Gateset.Rigetti_visible ~topology:(Topology.ring n)
          ~profile:
            {
              Calibration.avg_one_q_err = 0.002;
              avg_two_q_err = two_q;
              avg_readout_err = 0.03;
              coherence_us = 25.0;
              one_q_time_us = 0.05;
              two_q_time_us = 0.25;
              spatial_sigma = 0.4;
              temporal_sigma = 0.2;
              two_q_scale = None;
            }
          ~seed)
      (int_range 3 12)
      (float_range 0.005 0.2)
      (int_range 1 100000))

let prop_machine_io_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random machines roundtrip through JSON"
    (QCheck.make machine_gen) (fun m ->
      let m' = Machine_io.of_string (Machine_io.to_string m) in
      Machine.n_qubits m = Machine.n_qubits m'
      && Topology.edges m.Machine.topology = Topology.edges m'.Machine.topology
      && Machine.calibration m ~day:2 = Machine.calibration m' ~day:2)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_machine_io_roundtrip ]

let () =
  Alcotest.run "device"
    [
      ( "topology",
        [
          Alcotest.test_case "line" `Quick test_topology_line;
          Alcotest.test_case "ring" `Quick test_topology_ring;
          Alcotest.test_case "grid" `Quick test_topology_grid;
          Alcotest.test_case "fully connected" `Quick test_topology_fully_connected;
          Alcotest.test_case "directed" `Quick test_topology_directed;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "neighbors" `Quick test_topology_neighbors_sorted;
          Alcotest.test_case "disconnected" `Quick test_topology_disconnected;
          Alcotest.test_case "heavy hex" `Quick test_topology_heavy_hex;
          Alcotest.test_case "metrics" `Quick test_topology_metrics;
        ] );
      ( "gateset",
        [
          Alcotest.test_case "visibility" `Quick test_gateset_visibility;
          Alcotest.test_case "error free" `Quick test_gateset_error_free;
          Alcotest.test_case "pulse counts" `Quick test_gateset_pulse_counts;
          Alcotest.test_case "circuit pulses" `Quick test_gateset_circuit_pulse_count;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "deterministic" `Quick test_calibration_deterministic;
          Alcotest.test_case "daily drift" `Quick test_calibration_day_varies;
          Alcotest.test_case "clamped" `Quick test_calibration_clamped;
          Alcotest.test_case "mean tracks profile" `Quick
            test_calibration_mean_tracks_profile;
          Alcotest.test_case "sc varies more" `Quick
            test_calibration_superconducting_varies_more;
          Alcotest.test_case "explicit validation" `Quick
            test_calibration_explicit_validation;
          Alcotest.test_case "edge lookup" `Quick test_calibration_missing_edge;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "machine_io",
        [
          Alcotest.test_case "roundtrip all machines" `Quick test_machine_io_roundtrip_all;
          Alcotest.test_case "validation" `Quick test_machine_io_validation;
          Alcotest.test_case "usable for compilation" `Quick
            test_machine_io_usable_for_compilation;
          Alcotest.test_case "python-style escapes" `Quick
            test_machine_io_python_escapes;
          Alcotest.test_case "nesting bomb fails fast" `Quick
            test_machine_io_nesting_bomb;
          Alcotest.test_case "control bytes escaped" `Quick
            test_machine_io_control_bytes;
        ] );
      ( "machines",
        [
          Alcotest.test_case "inventory (fig 1)" `Quick test_machines_inventory;
          Alcotest.test_case "connected" `Quick test_machines_connected;
          Alcotest.test_case "umdti full" `Quick test_machines_umdti_fully_connected;
          Alcotest.test_case "vendors" `Quick test_machines_vendors;
          Alcotest.test_case "find" `Quick test_machines_find_case_insensitive;
          Alcotest.test_case "fits" `Quick test_machines_fits;
          Alcotest.test_case "duration" `Quick test_machines_duration;
          Alcotest.test_case "extended inventory" `Quick test_machines_extended;
          Alcotest.test_case "example 8q" `Quick test_machines_example_8q;
        ] );
      ("properties", qcheck_cases);
    ]
