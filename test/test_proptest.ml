(* The differential-testing harness itself, plus pinned fuzz regressions.

   The regression cases below are shrunk counterexamples printed by
   `triqc fuzz` against historical bugs (reproduced by reverting the fix
   and re-running the seed). They stay pinned so the bugs cannot return
   silently even if the generator distribution drifts. *)

module Gen = Proptest.Gen
module Shrink = Proptest.Shrink
module Harness = Proptest.Harness
module Oracle = Proptest.Oracle
module Rng = Mathkit.Rng
module Circuit = Ir.Circuit

(* ---------- pinned fuzz regressions ---------- *)

(* Shrunk by `triqc fuzz --seed 42 --oracle roundtrip` against the quil
   parser before tab separators were normalized: a whitespace-mangled
   "MEASURE\t0\tro[0]" no longer matched the "MEASURE " prefix. *)
let regression_quil_tab_measure () =
  let open Ir.Gate in
  let circuit = Ir.Circuit.create 1 [ Measure 0 ] in
  match Oracle.check_roundtrip Oracle.Quil circuit with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Shrunk by the same seed against a quil emitter printing RZ angles with
   %.5f instead of %.17g: any angle needing more than 5 decimals came
   back off by more than 1 ulp. *)
let regression_quil_angle_precision () =
  let open Ir.Gate in
  let circuit =
    Ir.Circuit.create 1 [ One (Rz 5.3879623764594055, 0) ]
  in
  match Oracle.check_roundtrip Oracle.Quil circuit with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Near-miss the shrinker walks into: a gate-free circuit has no Quil/TI
   representation (their parsers reject empty programs by design), so the
   oracle must treat it as out of domain rather than a failure. *)
let regression_empty_circuit_vacuous () =
  let circuit = Ir.Circuit.create 1 [] in
  List.iter
    (fun vendor ->
      match Oracle.check_roundtrip vendor circuit with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s rejected the empty circuit: %s"
          (Oracle.vendor_name vendor) msg)
    [ Oracle.Quil; Oracle.Ti ]

(* The statevector/density disagreement the sampler bug family lives
   next to: |1> must never sample outcome 0. Kept here in oracle form
   (the unit-level CDF tests live in test_sim.ml). *)
let regression_deterministic_state_semantics () =
  let open Ir.Gate in
  let circuit = Ir.Circuit.create 2 [ One (X, 0); Two (Cnot, 0, 1) ] in
  match Oracle.check_semantic circuit with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ---------- generator properties ---------- *)

let test_gen_deterministic () =
  (* The same seed must generate the same case stream — the whole replay
     story depends on it. *)
  let draw seed =
    let rng = Rng.create seed in
    List.init 20 (fun _ -> Gen.circuit ~max_qubits:5 ~max_gates:12 (Rng.split rng))
  in
  let a = draw 7 and b = draw 7 in
  Alcotest.(check bool) "same seed, same circuits" true
    (List.for_all2 Circuit.equal a b);
  let c = draw 8 in
  Alcotest.(check bool) "different seed differs somewhere" false
    (List.for_all2 Circuit.equal a c)

let test_gen_wellformed () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    (* Circuit.create validates qubit ranges and arities: generating is
       already the assertion. Check the extra invariants on top. *)
    let c = Gen.circuit ~max_qubits:6 ~max_gates:16 (Rng.split rng) in
    Alcotest.(check bool) "qubit count in range" true
      (c.Circuit.n_qubits >= 1 && c.Circuit.n_qubits <= 6);
    let measured = Circuit.measured_qubits c in
    Alcotest.(check bool) "measures are distinct" true
      (List.length (List.sort_uniq compare measured) = List.length measured)
  done

let test_gen_vendor_visibility () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    let c = Gen.rigetti_visible_circuit ~max_qubits:4 ~max_gates:10 (Rng.split rng) in
    List.iter
      (fun (g : Ir.Gate.t) ->
        match g with
        | One (Rz _, _) | One (Rx _, _)
        | Two (Cz, _, _) | Two (Iswap, _, _)
        | Measure _ -> ()
        | other ->
          Alcotest.failf "non-Rigetti gate generated: %s" (Ir.Gate.to_string other))
      c.Circuit.gates;
    (* Quil infers qubit count from use: the generator must touch the top
       qubit or the round-trip comparison is ill-posed. *)
    Alcotest.(check bool) "top qubit used" true
      (List.mem (c.Circuit.n_qubits - 1) (Circuit.used_qubits c))
  done

(* ---------- shrinking ---------- *)

let test_shrink_reaches_minimum () =
  (* Property: "no circuit contains a CNOT". The minimum counterexample
     is a single CNOT gate; the shrinker must find it from any start. *)
  let prop (c : Circuit.t) =
    if
      List.exists
        (function Ir.Gate.Two (Ir.Gate.Cnot, _, _) -> true | _ -> false)
        c.Circuit.gates
    then Error "contains a CNOT"
    else Ok ()
  in
  let spec =
    {
      Harness.name = "no-cnot";
      gen = Gen.circuit ~max_qubits:5 ~max_gates:20;
      shrink = Shrink.circuit;
      show = (fun c -> Format.asprintf "%a" Circuit.pp c);
      prop;
    }
  in
  let outcome = Harness.run ~seed:3 ~cases:200 spec in
  match outcome.Harness.failure with
  | None -> Alcotest.fail "expected a CNOT-bearing circuit within 200 cases"
  | Some f ->
    let shrunk = f.Harness.shrunk in
    Alcotest.(check int) "shrunk to a single gate" 1
      (List.length shrunk.Circuit.gates);
    Alcotest.(check bool) "that gate is the CNOT" true
      (match shrunk.Circuit.gates with
      | [ Ir.Gate.Two (Ir.Gate.Cnot, _, _) ] -> true
      | _ -> false)

let test_shrink_makes_progress () =
  (* Every candidate a circuit shrinker offers must differ from its
     input, or the minimizer could cycle without converging. *)
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let c = Gen.circuit ~max_qubits:5 ~max_gates:12 (Rng.split rng) in
    Seq.iter
      (fun c' ->
        if Circuit.equal c c' then
          Alcotest.failf "shrink candidate equals its input: %s"
            (Format.asprintf "%a" Circuit.pp c))
      (Shrink.circuit c)
  done

(* ---------- harness replay ---------- *)

let test_harness_replay_stable () =
  (* Same seed, same spec -> identical outcome, including the failing
     case index. *)
  let prop (c : Circuit.t) =
    if List.length c.Circuit.gates > 10 then Error "too many gates" else Ok ()
  in
  let spec =
    {
      Harness.name = "replay";
      gen = Gen.circuit ~max_qubits:4 ~max_gates:20;
      shrink = Shrink.circuit;
      show = (fun c -> Format.asprintf "%a" Circuit.pp c);
      prop;
    }
  in
  let a = Harness.run ~seed:23 ~cases:100 spec in
  let b = Harness.run ~seed:23 ~cases:100 spec in
  match (a.Harness.failure, b.Harness.failure) with
  | Some fa, Some fb ->
    Alcotest.(check int) "same failing index" fa.Harness.case_index
      fb.Harness.case_index;
    Alcotest.(check bool) "same shrunk circuit" true
      (Circuit.equal fa.Harness.shrunk fb.Harness.shrunk)
  | None, None -> Alcotest.fail "expected the >10-gate property to fail"
  | _ -> Alcotest.fail "replay diverged: one run failed, the other passed"

(* ---------- bounded oracle smoke ---------- *)

(* A small fixed-seed sweep of the real catalog on every runtest: catches
   regressions in the oracles themselves, not just in the stack. Case
   counts are bounded to keep runtest fast. *)
let test_oracle_smoke () =
  List.iter
    (fun (name, _) ->
      match Oracle.run ~seed:42 ~cases:25 name with
      | Error msg -> Alcotest.fail msg
      | Ok r -> (
        match r.Oracle.failure with
        | None -> ()
        | Some f ->
          Alcotest.failf "oracle %s failed at case %d: %s\n%s" name
            f.Oracle.case_index f.Oracle.message f.Oracle.repro))
    Oracle.catalog

(* The clifford oracle appends one [T] to each body so that an erred
   Clifford prefix is handed to the dense tail as a Pauli frame. The
   bodies here are Clifford-only, so they alone run on the stabilizer
   backend: every hybrid dispatch comes from the [T]-appended check.
   Enough of them must reach it for the oracle to cover the hand-off. *)
let test_clifford_oracle_reaches_hybrid () =
  let rng = Rng.create 42 in
  let cases = 40 in
  let hybrid = ref 0 in
  for _ = 1 to cases do
    let machine = Gen.one_of Device.Machines.all rng in
    let max_qubits = min 4 (Device.Machine.n_qubits machine) in
    let body = Gen.clifford_body ~max_qubits ~max_gates:14 rng in
    let n = body.Circuit.n_qubits in
    let c = Circuit.append body (List.init n (fun q -> Ir.Gate.Measure q)) in
    let run_seed = Gen.int_range 0 1_000_000 rng in
    Obs.Span.enable ();
    Obs.Span.reset ();
    let result =
      Fun.protect
        ~finally:Obs.Span.disable
        (fun () -> Oracle.check_clifford ~machine ~run_seed c)
    in
    (match result with Ok () -> () | Error msg -> Alcotest.fail msg);
    if
      List.exists
        (fun (s : Obs.Span.t) ->
          s.Obs.Span.name = "sim.plan"
          && List.assoc_opt "backend" s.Obs.Span.attrs = Some (Obs.Span.Str "hybrid"))
        (Obs.Span.collected ())
    then incr hybrid
  done;
  Obs.Span.reset ();
  if !hybrid * 4 < cases then
    Alcotest.failf "only %d of %d clifford cases reached the hybrid backend" !hybrid
      cases

let () =
  Alcotest.run "proptest"
    [
      ( "regressions",
        [
          Alcotest.test_case "quil tab measure" `Quick regression_quil_tab_measure;
          Alcotest.test_case "quil angle precision" `Quick
            regression_quil_angle_precision;
          Alcotest.test_case "empty circuit vacuous" `Quick
            regression_empty_circuit_vacuous;
          Alcotest.test_case "deterministic-state semantics" `Quick
            regression_deterministic_state_semantics;
        ] );
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "well-formed" `Quick test_gen_wellformed;
          Alcotest.test_case "vendor visibility" `Quick test_gen_vendor_visibility;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "reaches minimum" `Quick test_shrink_reaches_minimum;
          Alcotest.test_case "makes progress" `Quick test_shrink_makes_progress;
        ] );
      ("harness", [ Alcotest.test_case "replay stable" `Quick test_harness_replay_stable ]);
      ( "smoke",
        [
          Alcotest.test_case "oracle catalog" `Quick test_oracle_smoke;
          Alcotest.test_case "clifford reaches hybrid" `Quick
            test_clifford_oracle_reaches_hybrid;
        ] );
    ]
