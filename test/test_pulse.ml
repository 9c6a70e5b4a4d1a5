(* Pulse-layer tests: waveform envelopes, schedule packing invariants,
   per-vendor gate lowering, and consistency between pulse-level timing
   and the gate-level duration model. *)

module G = Ir.Gate
module Circuit = Ir.Circuit
module Machines = Device.Machines
module Machine = Device.Machine
module Pipeline = Triq.Pipeline
module Waveform = Pulse.Waveform
module Schedule = Pulse.Schedule
module Lower = Pulse.Lower

let gaussian duration =
  Waveform.create ~name:"g" ~shape:(Waveform.Gaussian { sigma_ns = duration /. 4.0 })
    ~duration_ns:duration ~amplitude:1.0 ~phase:0.0

(* ---------- Waveform ---------- *)

let test_waveform_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero duration" true
    (raises (fun () -> gaussian 0.0));
  Alcotest.(check bool) "amplitude > 1" true
    (raises (fun () ->
         Waveform.create ~name:"x" ~shape:Waveform.Constant ~duration_ns:10.0
           ~amplitude:1.5 ~phase:0.0));
  Alcotest.(check bool) "flat width > duration" true
    (raises (fun () ->
         Waveform.create ~name:"x"
           ~shape:(Waveform.Gaussian_square { sigma_ns = 1.0; width_ns = 20.0 })
           ~duration_ns:10.0 ~amplitude:0.5 ~phase:0.0))

let test_waveform_envelope_shapes () =
  let g = gaussian 100.0 in
  (* Peak at centre, symmetric, small at edges. *)
  Alcotest.(check (float 1e-9)) "peak" 1.0 (Waveform.sample g 50.0);
  Alcotest.(check (float 1e-9)) "symmetry" (Waveform.sample g 30.0) (Waveform.sample g 70.0);
  Alcotest.(check bool) "edges low" true (Waveform.sample g 0.0 < 0.2);
  Alcotest.(check (float 1e-12)) "outside" 0.0 (Waveform.sample g 150.0);
  let ft =
    Waveform.create ~name:"ft"
      ~shape:(Waveform.Gaussian_square { sigma_ns = 10.0; width_ns = 50.0 })
      ~duration_ns:100.0 ~amplitude:0.8 ~phase:0.0
  in
  (* Flat in the middle at full amplitude. *)
  Alcotest.(check (float 1e-9)) "flat mid" 0.8 (Waveform.sample ft 50.0);
  Alcotest.(check (float 1e-9)) "flat elsewhere" 0.8 (Waveform.sample ft 40.0)

let test_waveform_area_scales () =
  let a1 = Waveform.area (gaussian 100.0) in
  let a2 = Waveform.area (gaussian 200.0) in
  Alcotest.(check bool) "longer pulse, more area" true (a2 > 1.9 *. a1);
  let const =
    Waveform.create ~name:"c" ~shape:Waveform.Constant ~duration_ns:80.0
      ~amplitude:0.5 ~phase:0.0
  in
  Alcotest.(check (float 0.5)) "constant area" 40.0 (Waveform.area const)

(* ---------- Schedule ---------- *)

let test_schedule_asap_packing () =
  let s = Schedule.empty in
  let s, t0 = Schedule.append s ~channels:[ Schedule.Drive 0 ] (Schedule.Play (gaussian 100.0)) in
  let s, t1 = Schedule.append s ~channels:[ Schedule.Drive 1 ] (Schedule.Play (gaussian 100.0)) in
  let s, t2 = Schedule.append s ~channels:[ Schedule.Drive 0 ] (Schedule.Play (gaussian 50.0)) in
  Alcotest.(check (float 1e-9)) "first at 0" 0.0 t0;
  Alcotest.(check (float 1e-9)) "parallel channel at 0" 0.0 t1;
  Alcotest.(check (float 1e-9)) "same channel serialized" 100.0 t2;
  Alcotest.(check (float 1e-9)) "duration" 150.0 (Schedule.duration_ns s)

let test_schedule_multi_channel_barrier () =
  let s = Schedule.empty in
  let s, _ = Schedule.append s ~channels:[ Schedule.Drive 0 ] (Schedule.Play (gaussian 100.0)) in
  (* A 2-channel instruction must wait for both channels. *)
  let s, t =
    Schedule.append s
      ~channels:[ Schedule.Drive 0; Schedule.Drive 1 ]
      (Schedule.Play (gaussian 10.0))
  in
  Alcotest.(check (float 1e-9)) "starts after busy channel" 100.0 t;
  Alcotest.(check bool) "well formed" true (Schedule.no_overlap s)

let test_schedule_frame_change_instant () =
  let s = Schedule.empty in
  let s, _ = Schedule.append s ~channels:[ Schedule.Drive 0 ] (Schedule.Frame_change 0.3) in
  let s, t = Schedule.append s ~channels:[ Schedule.Drive 0 ] (Schedule.Play (gaussian 10.0)) in
  Alcotest.(check (float 1e-9)) "fc takes no time" 0.0 t;
  Alcotest.(check int) "one fc" 1 (Schedule.frame_change_count s);
  Alcotest.(check int) "one play" 1 (Schedule.play_count s)

let test_schedule_control_channel_normalized () =
  Alcotest.(check bool) "normalized equal" true
    (Schedule.normalize_channel (Schedule.Control (3, 1))
    = Schedule.normalize_channel (Schedule.Control (1, 3)))

(* ---------- Lowering ---------- *)

let compiled_for machine program =
  Pipeline.compile_level machine program ~level:Pipeline.OneQOptCN

let bv4 = (Bench_kit.Programs.bv 4).Bench_kit.Programs.circuit

let test_lower_all_vendors_wellformed () =
  List.iter
    (fun machine ->
      let schedule = Lower.of_compiled (compiled_for machine bv4) in
      Alcotest.(check bool)
        (machine.Machine.name ^ " no overlap")
        true (Schedule.no_overlap schedule);
      Alcotest.(check bool)
        (machine.Machine.name ^ " nonempty")
        true
        (Schedule.duration_ns schedule > 0.0))
    Machines.all

let test_lower_virtual_z_is_frame_change () =
  (* A pure-Z circuit lowers to frame changes only: zero pulses. *)
  let c = Circuit.create 1 [ G.One (G.U1 0.7, 0) ] in
  let schedule = Lower.of_circuit Machines.ibmq5 c in
  Alcotest.(check int) "no plays" 0 (Schedule.play_count schedule);
  Alcotest.(check int) "one fc" 1 (Schedule.frame_change_count schedule);
  Alcotest.(check (float 1e-9)) "zero duration" 0.0 (Schedule.duration_ns schedule)

let test_lower_pulse_counts_match_gateset () =
  (* The pulse schedule's play count equals the gate-level pulse metric
     for 1Q gates (2Q gates add their own tones). *)
  let c =
    Circuit.create 2
      [ G.One (G.U1 0.1, 0); G.One (G.U2 (0.1, 0.2), 0); G.One (G.U3 (1.0, 0.2, 0.3), 1) ]
  in
  let schedule = Lower.of_circuit Machines.ibmq5 c in
  Alcotest.(check int) "0 + 1 + 2 pulses" 3 (Schedule.play_count schedule)

let test_lower_duration_tracks_gate_model () =
  (* Pulse-level duration must be within 2x of the gate-level critical
     path estimate (they share the same per-gate times). *)
  List.iter
    (fun machine ->
      let compiled = compiled_for machine bv4 in
      let schedule = Lower.of_compiled compiled in
      let body = Circuit.body compiled.Triq.Compiled.hardware in
      let gate_level_us = Machine.duration_us machine body in
      let pulse_level_us = Schedule.duration_ns (Lower.of_circuit machine body) /. 1000.0 in
      ignore schedule;
      let ratio = pulse_level_us /. Float.max gate_level_us 1e-9 in
      if ratio < 0.4 || ratio > 2.5 then
        Alcotest.failf "%s: pulse %.2fus vs gate %.2fus" machine.Machine.name
          pulse_level_us gate_level_us)
    [ Machines.ibmq5; Machines.agave; Machines.umdti ]

let test_lower_rejects_non_visible () =
  let c = Circuit.create 1 [ G.One (G.H, 0) ] in
  Alcotest.(check bool) "H rejected for IBM" true
    (try ignore (Lower.of_circuit Machines.ibmq5 c); false
     with Invalid_argument _ -> true)

let test_lower_umd_rotation_duration_scales () =
  let short = Circuit.create 1 [ G.One (G.Rxy (0.2, 0.0), 0) ] in
  let long = Circuit.create 1 [ G.One (G.Rxy (Float.pi, 0.0), 0) ] in
  let d c = Schedule.duration_ns (Lower.of_circuit Machines.umdti c) in
  Alcotest.(check bool) "angle-proportional" true (d long > 4.0 *. d short)

let test_lower_measure_acquires () =
  let c = Circuit.create 1 [ G.Measure 0 ] in
  let schedule = Lower.of_circuit Machines.umdti c in
  Alcotest.(check (float 1.0)) "ion readout window" 200_000.0
    (Schedule.duration_ns schedule)

(* ---------- Emit ---------- *)

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_emit_openpulse_json () =
  let schedule = Lower.of_compiled (compiled_for Machines.ibmq5 bv4) in
  let json = Pulse.Emit.openpulse_json schedule in
  Alcotest.(check bool) "schema" true (contains json "openpulse-0.1");
  Alcotest.(check bool) "has plays" true (contains json "\"name\": \"play\"");
  Alcotest.(check bool) "has fcs" true (contains json "\"name\": \"fc\"");
  Alcotest.(check bool) "has acquire" true (contains json "\"name\": \"acquire\"");
  Alcotest.(check bool) "drag pulses on ibm" true (contains json "\"shape\": \"drag\"")

(* ---------- qcheck ---------- *)

let schedule_gen =
  QCheck.Gen.(
    let instr =
      oneof
        [
          map (fun d -> `Play (10.0 +. (190.0 *. d))) (float_range 0.0 1.0);
          map (fun p -> `Fc p) (float_range (-3.0) 3.0);
        ]
    in
    let step = pair (int_range 0 3) instr in
    map
      (fun steps ->
        List.fold_left
          (fun sched (q, instr) ->
            let instruction =
              match instr with
              | `Play d -> Schedule.Play (gaussian d)
              | `Fc p -> Schedule.Frame_change p
            in
            fst (Schedule.append sched ~channels:[ Schedule.Drive q ] instruction))
          Schedule.empty steps)
      (list_size (int_range 0 30) step))

let prop_schedules_never_overlap =
  QCheck.Test.make ~count:200 ~name:"ASAP schedules never overlap"
    (QCheck.make schedule_gen) Schedule.no_overlap

let prop_duration_monotone =
  QCheck.Test.make ~count:100 ~name:"appending never shortens a schedule"
    (QCheck.make schedule_gen) (fun sched ->
      let d0 = Schedule.duration_ns sched in
      let sched', _ =
        Schedule.append sched ~channels:[ Schedule.Drive 0 ] (Schedule.Play (gaussian 25.0))
      in
      Schedule.duration_ns sched' >= d0)

let visible_circuit_gen =
  (* Random IBM-visible circuits over 4 qubits. *)
  QCheck.Gen.(
    let n = 4 in
    let gate =
      oneof
        [
          map2 (fun q l -> G.One (G.U1 l, q)) (int_range 0 (n - 1)) (float_range 0.0 6.28);
          map2
            (fun q l -> G.One (G.U2 (l, 0.5), q))
            (int_range 0 (n - 1)) (float_range 0.0 6.28);
          map2
            (fun q l -> G.One (G.U3 (l, 0.2, 0.4), q))
            (int_range 0 (n - 1)) (float_range 0.0 3.1);
          map2
            (fun a d -> G.Two (G.Cnot, a, (a + 1 + d) mod n))
            (int_range 0 (n - 1)) (int_range 0 (n - 2));
          map (fun q -> G.Measure q) (int_range 0 (n - 1));
        ]
    in
    map (fun gates ->
        (* Keep at most one measure per qubit, as the IR requires. *)
        let seen = Array.make n false in
        let cleaned =
          List.filter
            (fun g ->
              match (g : G.t) with
              | G.Measure q ->
                if seen.(q) then false
                else begin
                  seen.(q) <- true;
                  true
                end
              | _ -> true)
            gates
        in
        Circuit.create n cleaned)
      (list_size (int_range 1 25) gate))

let prop_lowering_wellformed =
  QCheck.Test.make ~count:100 ~name:"random visible circuits lower to valid schedules"
    (QCheck.make visible_circuit_gen) (fun c ->
      let schedule = Lower.of_circuit Machines.ibmq16 c in
      Schedule.no_overlap schedule
      && Schedule.duration_ns schedule >= 0.0
      && Schedule.play_count schedule
         >= Device.Gateset.circuit_pulse_count Device.Gateset.Ibm_visible c)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_schedules_never_overlap; prop_duration_monotone; prop_lowering_wellformed ]

let () =
  Alcotest.run "pulse"
    [
      ( "waveform",
        [
          Alcotest.test_case "validation" `Quick test_waveform_validation;
          Alcotest.test_case "envelopes" `Quick test_waveform_envelope_shapes;
          Alcotest.test_case "area" `Quick test_waveform_area_scales;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "asap packing" `Quick test_schedule_asap_packing;
          Alcotest.test_case "multi-channel barrier" `Quick test_schedule_multi_channel_barrier;
          Alcotest.test_case "frame changes instant" `Quick test_schedule_frame_change_instant;
          Alcotest.test_case "channel normalization" `Quick
            test_schedule_control_channel_normalized;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "all vendors" `Quick test_lower_all_vendors_wellformed;
          Alcotest.test_case "virtual z" `Quick test_lower_virtual_z_is_frame_change;
          Alcotest.test_case "pulse counts" `Quick test_lower_pulse_counts_match_gateset;
          Alcotest.test_case "duration consistency" `Quick test_lower_duration_tracks_gate_model;
          Alcotest.test_case "rejects non-visible" `Quick test_lower_rejects_non_visible;
          Alcotest.test_case "umd angle scaling" `Quick test_lower_umd_rotation_duration_scales;
          Alcotest.test_case "measure acquires" `Quick test_lower_measure_acquires;
        ] );
      ("emit", [ Alcotest.test_case "openpulse json" `Quick test_emit_openpulse_json ]);
      ("properties", qcheck_cases);
    ]
