module Circuit = Ir.Circuit
module G = Ir.Gate

(* ---------- roundtrip ---------- *)

type vendor = Qasm | Quil | Ti

let vendor_name = function Qasm -> "qasm" | Quil -> "quil" | Ti -> "ti"

let vendor_ctor = function Qasm -> "Qasm" | Quil -> "Quil" | Ti -> "Ti"

(* CRLF line endings, trailing blanks, and tab separators: the
   whitespace dialects real vendor toolchains produce. A parser must
   read the mangled text identically. *)
let mangle_whitespace text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let tabbed = String.map (fun c -> if c = ' ' then '\t' else c) line in
         tabbed ^ " \t")
  |> String.concat "\r\n"

let expected_readout c =
  List.filter_map (function G.Measure q -> Some q | _ -> None) c.Circuit.gates
  |> List.mapi (fun i q -> (i, q))

let max_used_qubit c =
  List.fold_left max (-1) (Circuit.used_qubits c)

let gates_equal a b =
  List.length a = List.length b && List.for_all2 G.equal a b

(* Full-precision rendering: [G.to_string] rounds angles for display,
   which would make a 1-ulp round-trip divergence print as two identical
   gates. *)
let pp_gates gates =
  String.concat "; " (List.map Repro.gate_src gates)

let check_parsed ~what ~expect_n c (parsed_circuit : Circuit.t) parsed_readout =
  if not (gates_equal c.Circuit.gates parsed_circuit.Circuit.gates) then
    Error
      (Printf.sprintf "%s: gates changed across emit/parse:\n  emitted: %s\n  parsed:  %s"
         what (pp_gates c.Circuit.gates) (pp_gates parsed_circuit.Circuit.gates))
  else if parsed_circuit.Circuit.n_qubits <> expect_n then
    Error
      (Printf.sprintf "%s: qubit count %d parsed back as %d" what expect_n
         parsed_circuit.Circuit.n_qubits)
  else begin
    let expected = expected_readout c in
    if parsed_readout <> expected then
      Error
        (Printf.sprintf "%s: readout map changed: expected [%s], got [%s]" what
           (String.concat "; "
              (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) expected))
           (String.concat "; "
              (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) parsed_readout)))
    else Ok ()
  end

let roundtrip_once vendor c ~what text =
  match vendor with
  | Qasm ->
    let p = Qasm.Frontend.parse text in
    let readout = List.mapi (fun i q -> (i, q)) p.Qasm.Frontend.measured in
    check_parsed ~what ~expect_n:c.Circuit.n_qubits c p.Qasm.Frontend.circuit readout
  | Quil ->
    let p = Backend.Quil_parse.parse text in
    (* Quil has no qubit declaration: the parser can only infer the
       count from the highest qubit used. *)
    check_parsed ~what ~expect_n:(max_used_qubit c + 1) c
      p.Backend.Quil_parse.circuit p.Backend.Quil_parse.readout
  | Ti ->
    let p = Backend.Ti_parse.parse text in
    let readout = List.mapi (fun i q -> (i, q)) p.Backend.Ti_parse.measured in
    check_parsed ~what ~expect_n:(max_used_qubit c + 1) c
      p.Backend.Ti_parse.circuit readout

let emit vendor c =
  match vendor with
  | Qasm ->
    Backend.Qasm_emit.emit_circuit ~n_qubits:c.Circuit.n_qubits ~name:"fuzz" c
  | Quil -> Backend.Quil_emit.emit_circuit ~name:"fuzz" c
  | Ti -> Backend.Ti_emit.emit_circuit ~name:"fuzz" c

let check_roundtrip vendor c =
  (* Quil and TI have no qubit declaration, so an empty program carries no
     information and the parsers reject it by design: out of domain (the
     generators never produce one, but the shrinker can). *)
  if c.Circuit.gates = [] && vendor <> Qasm then Ok ()
  else
  match emit vendor c with
  | exception Invalid_argument msg ->
    Error (Printf.sprintf "emitter rejected a software-visible circuit: %s" msg)
  | text -> (
    let name = vendor_name vendor in
    match roundtrip_once vendor c ~what:name text with
    | Error _ as e -> e
    | Ok () -> (
      let mangled = mangle_whitespace text in
      match roundtrip_once vendor c ~what:(name ^ "+whitespace") mangled with
      | exception e ->
        Error
          (Printf.sprintf
             "%s: whitespace-mangled text (CRLF/tabs) no longer parses: %s" name
             (Printexc.to_string e))
      | r -> r))

(* ---------- semantic ---------- *)

let check_semantic c =
  let body = Circuit.body c in
  let n = body.Circuit.n_qubits in
  if n > 6 then Ok () (* vacuous: density sim would be too large *)
  else begin
    let sv = Sim.Statevector.run body in
    let sv_probs = Sim.Statevector.probabilities sv in
    let d = Sim.Density.init n in
    List.iter (Sim.Density.apply_gate d) body.Circuit.gates;
    let rho_probs = Sim.Density.populations d in
    let dim = 1 lsl n in
    if Array.length rho_probs <> dim then
      Error
        (Printf.sprintf "density populations has %d entries, expected %d"
           (Array.length rho_probs) dim)
    else begin
      let l1 = ref 0.0 in
      for i = 0 to dim - 1 do
        l1 := !l1 +. Float.abs (sv_probs.(i) -. rho_probs.(i))
      done;
      if !l1 <= 1e-9 then Ok ()
      else
        Error
          (Printf.sprintf
             "statevector and density disagree: L1 distance %.3e (> 1e-9)" !l1)
    end
  end

(* ---------- dataflow ---------- *)

let pauli_x_matrix =
  Mathkit.Matrix.of_rows
    [ [ Mathkit.Cplx.zero; Mathkit.Cplx.one ]; [ Mathkit.Cplx.one; Mathkit.Cplx.zero ] ]

let pauli_z_matrix =
  Mathkit.Matrix.of_rows
    [ [ Mathkit.Cplx.one; Mathkit.Cplx.zero ];
      [ Mathkit.Cplx.zero; Mathkit.Cplx.re (-1.0) ] ]

let check_dataflow c =
  let n = c.Circuit.n_qubits in
  if n > 6 then Ok () (* vacuous: statevector oracle would be too large *)
  else begin
    (* Static liveness vs dynamics: deleting every [dead.gate] must leave
       the measured-outcome distribution untouched. *)
    let dead = Dataflow.Liveness.dead_indices c in
    let dead_result =
      if dead = [] then Ok ()
      else begin
        let measured = Circuit.measured_qubits c in
        let kept =
          List.filteri (fun i _ -> not (List.mem i dead)) c.Circuit.gates
        in
        let pruned = Circuit.create n kept in
        let d_full = Sim.Runner.ideal_distribution c ~measured in
        let d_pruned = Sim.Runner.ideal_distribution pruned ~measured in
        let lookup d k = Option.value ~default:0.0 (List.assoc_opt k d) in
        let keys =
          List.sort_uniq Stdlib.compare
            (List.map fst d_full @ List.map fst d_pruned)
        in
        let l1 =
          List.fold_left
            (fun acc k -> acc +. Float.abs (lookup d_full k -. lookup d_pruned k))
            0.0 keys
        in
        if l1 <= 1e-9 then Ok ()
        else
          Error
            (Printf.sprintf
               "removing %d statically-dead gate(s) changed the measured \
                distribution: L1 distance %.3e (> 1e-9)"
               (List.length dead) l1)
      end
    in
    match dead_result with
    | Error _ -> dead_result
    | Ok () -> (
      (* Static tableau vs dynamics: every generator the Clifford domain
         reports must stabilize the simulated state, i.e.
         <psi|P|psi> = 1 for P = i^e * prod X^x Z^z. *)
      let body = Circuit.body c in
      match Dataflow.Tableau.of_circuit body with
      | None -> Ok ()
      | Some t ->
        let sv = Sim.Statevector.run body in
        let dim = 1 lsl n in
        let check_gen ((e, x, z) : Dataflow.Tableau.generator) =
          let phi = Sim.Statevector.copy sv in
          for q = 0 to n - 1 do
            (* X-before-Z operator order: Z hits the state first. *)
            if z.(q) then Sim.Statevector.apply_one phi pauli_z_matrix q;
            if x.(q) then Sim.Statevector.apply_one phi pauli_x_matrix q
          done;
          let inner = ref Mathkit.Cplx.zero in
          for i = 0 to dim - 1 do
            inner :=
              Mathkit.Cplx.add !inner
                (Mathkit.Cplx.mul
                   (Mathkit.Cplx.conj (Sim.Statevector.amplitude sv i))
                   (Sim.Statevector.amplitude phi i))
          done;
          (* P|psi> = |psi> requires <psi|(XZ..)|psi> = i^{-e}. *)
          let expected =
            match e land 3 with
            | 0 -> Mathkit.Cplx.one
            | 1 -> Mathkit.Cplx.make 0.0 (-1.0)
            | 2 -> Mathkit.Cplx.re (-1.0)
            | _ -> Mathkit.Cplx.i
          in
          if Mathkit.Cplx.approx ~eps:1e-6 !inner expected then None
          else
            Some
              (Printf.sprintf
                 "tableau generator %s does not stabilize the simulated \
                  state: expected <psi|XZ..|psi> = %s, got %s"
                 (Dataflow.Tableau.generator_to_string (e, x, z))
                 (Mathkit.Cplx.to_string expected)
                 (Mathkit.Cplx.to_string !inner))
        in
        let rec first_failure = function
          | [] -> Ok ()
          | g :: rest -> (
            match check_gen g with
            | Some msg -> Error msg
            | None -> first_failure rest)
        in
        first_failure (Dataflow.Tableau.generators t))
  end

(* ---------- schedule ---------- *)

let check_schedule ~machine ~level ~router ~peephole ~day c =
  let measured = Circuit.measured_qubits c in
  if (not (Device.Machine.fits machine c)) || measured = [] then Ok ()
  else begin
    let config = Triq.Pass.Config.make ~day ~router ~peephole () in
    let schedule = Triq.Pass.Schedule.of_level ~config level in
    match Triq.Pipeline.compile_schedule ~config machine c schedule with
    | exception e ->
      Error
        (Printf.sprintf "%s at %s (router=%s, peephole=%b, day=%d) raised: %s"
           machine.Device.Machine.name
           (Triq.Pass.level_name level)
           (Triq.Pass.Config.router_name router)
           peephole day (Printexc.to_string e))
    | compiled -> (
      match Sim.Verify.check ~program:c ~measured compiled with
      | exception e ->
        Error
          (Printf.sprintf "%s at %s: verification raised: %s"
             machine.Device.Machine.name
             (Triq.Pass.level_name level)
             (Printexc.to_string e))
      | result ->
        if result.Sim.Verify.equivalent then Ok ()
        else
          Error
            (Printf.sprintf
               "%s at %s (router=%s, peephole=%b, day=%d): compiled output \
                diverges, total variation %.6f"
               machine.Device.Machine.name
               (Triq.Pass.level_name level)
               (Triq.Pass.Config.router_name router)
               peephole day result.Sim.Verify.total_variation))
  end

(* ---------- determinism ---------- *)

(* One pool per size, created on first use and kept for the process
   lifetime (mirrors Parallel.Pool.default). *)
let pools = lazy (List.map (fun j -> (j, Parallel.Pool.create ~jobs:j)) [ 1; 2; 8 ])

let outcome_diff (a : Sim.Runner.outcome) (b : Sim.Runner.outcome) =
  if a.Sim.Runner.distribution <> b.Sim.Runner.distribution then
    Some "distribution"
  else if a.Sim.Runner.counts <> b.Sim.Runner.counts then Some "counts"
  else if a.Sim.Runner.success_rate <> b.Sim.Runner.success_rate then
    Some "success_rate"
  else if a.Sim.Runner.dominant_correct <> b.Sim.Runner.dominant_correct then
    Some "dominant_correct"
  else None

let check_determinism ~machine ~sample_counts ~explicit_t1 ~run_seed c =
  let measured = Circuit.measured_qubits c in
  if (not (Device.Machine.fits machine c)) || measured = [] then Ok ()
  else begin
    match
      Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.OneQOptCN
    with
    | exception e ->
      Error (Printf.sprintf "compile raised: %s" (Printexc.to_string e))
    | compiled -> (
      let spec =
        match Sim.Runner.ideal_distribution (Circuit.body c) ~measured with
        | [] -> Ir.Spec.deterministic measured (String.make (List.length measured) '0')
        | dist -> Ir.Spec.distribution measured dist
      in
      let run pool =
        Sim.Runner.simulate
          ~config:
            (Sim.Runner.Config.make ~seed:run_seed ~trials:512 ~trajectories:60
               ~sample_counts ~explicit_t1 ~pool ())
          compiled spec
      in
      match List.map (fun (j, p) -> (j, run p)) (Lazy.force pools) with
      | exception e ->
        Error (Printf.sprintf "runner raised: %s" (Printexc.to_string e))
      | [] | [ _ ] -> Ok ()
      | (j0, reference) :: rest ->
        List.fold_left
          (fun acc (j, outcome) ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
              match outcome_diff reference outcome with
              | None -> Ok ()
              | Some field ->
                Error
                  (Printf.sprintf
                     "outcome %s differs between -j %d and -j %d (machine %s, \
                      sample_counts=%b, explicit_t1=%b, seed=%d)"
                     field j0 j machine.Device.Machine.name sample_counts
                     explicit_t1 run_seed)))
          (Ok ()) rest)
  end

(* ---------- clifford ---------- *)

let l1_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i p -> d := !d +. Float.abs (p -. b.(i))) a;
  !d

(* Largest per-outcome gap between two reported distributions (missing
   entries count as zero). The reports truncate below 1e-6, so an entry
   sitting exactly on the threshold can appear in only one list — the
   caller's tolerance must absorb that. *)
let dist_gap a b =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  let gap = ref 0.0 in
  List.iter
    (fun (k, v) ->
      let v0 = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
      gap := Float.max !gap (Float.abs (v -. v0));
      Hashtbl.remove tbl k)
    b;
  Hashtbl.iter (fun _ v -> gap := Float.max !gap (Float.abs v)) tbl;
  !gap

let check_clifford ~machine ~run_seed c =
  (* IR level: the tableau must agree exactly with the dense backend on
     the Clifford prefix of [c]'s body — full distribution, the
     materialized statevector, and measurement sampling confined to the
     support. *)
  let body = Circuit.body c in
  let n = body.Circuit.n_qubits in
  let prefix =
    let rec take acc = function
      | g :: rest when Dataflow.Tableau.is_clifford_gate g -> take (g :: acc) rest
      | _ -> List.rev acc
    in
    take [] body.Circuit.gates
  in
  let tab = Sim.Stabilizer.init n in
  if not (List.for_all (fun g -> Sim.Stabilizer.apply_gate tab g) prefix) then
    Error "stabilizer rejected a gate the tableau classifies as Clifford"
  else begin
    let p_sv =
      Sim.Statevector.probabilities (Sim.Statevector.run (Circuit.create n prefix))
    in
    let p_tab = Sim.Stabilizer.probabilities tab in
    let p_mat =
      Sim.Statevector.probabilities (Sim.Stabilizer.to_statevector tab)
    in
    let l1_pt = l1_diff p_sv p_tab and l1_pm = l1_diff p_sv p_mat in
    if l1_pt > 1e-9 then
      Error
        (Printf.sprintf "tableau distribution drifts from dense backend: L1=%g"
           l1_pt)
    else if l1_pm > 1e-9 then
      Error
        (Printf.sprintf
           "materialized statevector drifts from dense backend: L1=%g" l1_pm)
    else begin
      let rng = Mathkit.Rng.create run_seed in
      let bad = ref None in
      for _ = 1 to 12 do
        let idx = Sim.Stabilizer.measure_all (Sim.Stabilizer.copy tab) rng in
        if p_sv.(idx) < 1e-12 && !bad = None then bad := Some idx
      done;
      match !bad with
      | Some idx ->
        Error
          (Printf.sprintf "sampled outcome %d lies outside the dense support"
             idx)
      | None ->
        (* Runner level: [Auto] dispatch (stabilizer for Clifford-only
           compilations, hybrid for Clifford prefixes) must reproduce the
           forced dense backend. Fusion off on both sides so error-Pauli
           draws happen in the same order and the comparison is
           numerical, not stochastic. *)
        let measured = Circuit.measured_qubits c in
        if (not (Device.Machine.fits machine c)) || measured = [] then Ok ()
        else begin
          match
            Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.OneQOptCN
          with
          | exception e ->
            Error (Printf.sprintf "compile raised: %s" (Printexc.to_string e))
          | compiled -> (
            let spec =
              match Sim.Runner.ideal_distribution (Circuit.body c) ~measured with
              | [] ->
                Ir.Spec.deterministic measured
                  (String.make (List.length measured) '0')
              | dist -> Ir.Spec.distribution measured dist
            in
            let run backend =
              Sim.Runner.simulate
                ~config:
                  (Sim.Runner.Config.make ~seed:run_seed ~trials:512
                     ~trajectories:60 ~fusion:false ~backend ())
                compiled spec
            in
            match
              (run Sim.Runner.Config.Auto, run Sim.Runner.Config.Statevector)
            with
            | exception e ->
              Error (Printf.sprintf "runner raised: %s" (Printexc.to_string e))
            | auto, dense ->
              let gap =
                dist_gap auto.Sim.Runner.distribution
                  dense.Sim.Runner.distribution
              in
              (* 2e-6 absorbs the 1e-6 report-truncation threshold on
                 top of float error. *)
              if gap > 2e-6 then
                Error
                  (Printf.sprintf
                     "auto and statevector backends diverge (machine %s, \
                      seed %d): max distribution gap %g"
                     machine.Device.Machine.name run_seed gap)
              else Ok ())
        end
    end
  end

(* ---------- layout ---------- *)

let check_layout ~machine ~day c =
  if not (Device.Machine.fits machine c) then Ok ()
  else begin
    let flat = Ir.Decompose.flatten c in
    let reliability =
      Triq.Reliability.compute_cached ~noise_aware:true machine ~day
    in
    let pr = Triq.Placement.problem reliability flat in
    let bb = Layout.Bb.solve pr in
    let smt = Layout.Smt_search.solve pr in
    let n_hardware = Device.Machine.n_qubits machine in
    let valid name (r : Layout.Report.t) =
      let sorted = List.sort_uniq compare (Array.to_list r.Layout.Report.placement) in
      if List.length sorted <> Array.length r.Layout.Report.placement then
        Error (Printf.sprintf "%s placement is not injective" name)
      else if List.exists (fun h -> h < 0 || h >= n_hardware) sorted then
        Error (Printf.sprintf "%s placement leaves the device" name)
      else Ok ()
    in
    let ( let* ) = Result.bind in
    let* () = valid "bb" bb in
    let* () = valid "smt" smt in
    (* The engines realize the same max-min objective; their scores must
       agree whenever the B&B search completed (generated programs are
       tiny, so it always does — the guard keeps the property honest). *)
    let* () =
      if
        bb.Layout.Report.proven_optimal
        && Float.abs (bb.Layout.Report.objective -. smt.Layout.Report.objective)
           > 1e-9
      then
        Error
          (Printf.sprintf "bb %.9f and smt %.9f disagree on the objective"
             bb.Layout.Report.objective smt.Layout.Report.objective)
      else Ok ()
    in
    (* Cache round-trip: a repeat solve through the process-wide cache
       must score exactly like the first (hit placements are stored in
       canonical labels and translated back per query). *)
    let solve () =
      Triq.Placement.solve ~reliability
        ~machine_name:machine.Device.Machine.name ~day flat
    in
    let r1 = solve () in
    let r2 = solve () in
    if r2.Layout.Report.cache <> Layout.Report.Hit then
      Error "second solve through the cache did not hit"
    else if r2.Layout.Report.objective <> r1.Layout.Report.objective then
      Error
        (Printf.sprintf "cache hit scores %.12f, cold solve scored %.12f"
           r2.Layout.Report.objective r1.Layout.Report.objective)
    else if r2.Layout.Report.placement <> r1.Layout.Report.placement then
      Error "cache hit returned a different placement than the cold solve"
    else Ok ()
  end

(* ---------- generated case types ---------- *)

type roundtrip_case = { rt_vendor : vendor; rt_circuit : Circuit.t }

type schedule_case = {
  sc_machine : Device.Machine.t;
  sc_level : Triq.Pipeline.level;
  sc_router : Triq.Pass.Config.router;
  sc_peephole : bool;
  sc_day : int;
  sc_circuit : Circuit.t;
}

type determinism_case = {
  dt_machine : Device.Machine.t;
  dt_sample_counts : bool;
  dt_explicit_t1 : bool;
  dt_run_seed : int;
  dt_circuit : Circuit.t;
}

type clifford_case = {
  cl_machine : Device.Machine.t;
  cl_run_seed : int;
  cl_circuit : Circuit.t;
}

type layout_case = {
  ly_machine : Device.Machine.t;
  ly_day : int;
  ly_circuit : Circuit.t;
}

let show_circuit c = Format.asprintf "%a" Circuit.pp c

let level_ctor = function
  | Triq.Pipeline.N -> "N"
  | Triq.Pipeline.OneQOpt -> "OneQOpt"
  | Triq.Pipeline.OneQOptC -> "OneQOptC"
  | Triq.Pipeline.OneQOptCN -> "OneQOptCN"

let router_ctor = function
  | Triq.Pass.Config.Default -> "Default"
  | Triq.Pass.Config.Lookahead -> "Lookahead"

(* ---------- harness specs ---------- *)

let roundtrip_spec : roundtrip_case Harness.spec =
  {
    Harness.name = "roundtrip";
    gen =
      (fun rng ->
        let v = Gen.one_of [ Qasm; Quil; Ti ] rng in
        let circuit =
          match v with
          | Qasm -> Gen.ibm_visible_circuit ~max_qubits:5 ~max_gates:16 rng
          | Quil -> Gen.rigetti_visible_circuit ~max_qubits:5 ~max_gates:16 rng
          | Ti -> Gen.umd_visible_circuit ~max_qubits:5 ~max_gates:16 rng
        in
        { rt_vendor = v; rt_circuit = circuit });
    shrink =
      Shrink.lift
        ~get:(fun c -> c.rt_circuit)
        ~set:(fun c circuit -> { c with rt_circuit = circuit })
        Shrink.circuit;
    show =
      (fun c ->
        Printf.sprintf "format=%s\n%s" (vendor_name c.rt_vendor)
          (show_circuit c.rt_circuit));
    prop = (fun c -> check_roundtrip c.rt_vendor c.rt_circuit);
  }

let semantic_spec : Circuit.t Harness.spec =
  {
    Harness.name = "semantic";
    gen = Gen.body ~max_qubits:6 ~max_gates:24;
    shrink = Shrink.circuit;
    show = show_circuit;
    prop = check_semantic;
  }

let dataflow_spec : Circuit.t Harness.spec =
  {
    Harness.name = "dataflow";
    gen = Gen.circuit ~max_qubits:6 ~max_gates:20;
    shrink = Shrink.circuit;
    show = show_circuit;
    prop = check_dataflow;
  }

let schedule_shrink (c : schedule_case) =
  let configs =
    (if c.sc_peephole then [ { c with sc_peephole = false } ] else [])
    @ (if c.sc_router = Triq.Pass.Config.Lookahead then
         [ { c with sc_router = Triq.Pass.Config.Default } ]
       else [])
    @ (if c.sc_day > 0 then [ { c with sc_day = 0 } ] else [])
    @
    match c.sc_level with
    | Triq.Pipeline.N -> []
    | _ -> [ { c with sc_level = Triq.Pipeline.N } ]
  in
  Seq.append (List.to_seq configs)
    (Seq.map (fun circuit -> { c with sc_circuit = circuit })
       (Shrink.circuit c.sc_circuit))

let schedule_spec : schedule_case Harness.spec =
  {
    Harness.name = "schedule";
    gen =
      (fun rng ->
        let machine = Gen.machine rng in
        let max_qubits = min 5 (Device.Machine.n_qubits machine) in
        {
          sc_machine = machine;
          sc_level = Gen.level rng;
          sc_router = Gen.router rng;
          sc_peephole = Gen.bool 0.3 rng;
          sc_day = Gen.day rng;
          sc_circuit = Gen.circuit ~max_qubits ~max_gates:12 rng;
        });
    shrink = schedule_shrink;
    show =
      (fun c ->
        Printf.sprintf "machine=%s level=%s router=%s peephole=%b day=%d\n%s"
          c.sc_machine.Device.Machine.name
          (Triq.Pass.level_name c.sc_level)
          (Triq.Pass.Config.router_name c.sc_router)
          c.sc_peephole c.sc_day (show_circuit c.sc_circuit));
    prop =
      (fun c ->
        check_schedule ~machine:c.sc_machine ~level:c.sc_level
          ~router:c.sc_router ~peephole:c.sc_peephole ~day:c.sc_day c.sc_circuit);
  }

let determinism_spec : determinism_case Harness.spec =
  {
    Harness.name = "determinism";
    gen =
      (fun rng ->
        let machine = Gen.one_of Device.Machines.all rng in
        let max_qubits = min 4 (Device.Machine.n_qubits machine) in
        {
          dt_machine = machine;
          dt_sample_counts = Gen.bool 0.5 rng;
          dt_explicit_t1 = Gen.bool 0.3 rng;
          dt_run_seed = Gen.int_range 0 1_000_000 rng;
          dt_circuit = Gen.circuit ~max_qubits ~max_gates:10 rng;
        });
    shrink =
      Shrink.lift
        ~get:(fun c -> c.dt_circuit)
        ~set:(fun c circuit -> { c with dt_circuit = circuit })
        Shrink.circuit;
    show =
      (fun c ->
        Printf.sprintf "machine=%s sample_counts=%b explicit_t1=%b seed=%d\n%s"
          c.dt_machine.Device.Machine.name c.dt_sample_counts c.dt_explicit_t1
          c.dt_run_seed (show_circuit c.dt_circuit));
    prop =
      (fun c ->
        check_determinism ~machine:c.dt_machine ~sample_counts:c.dt_sample_counts
          ~explicit_t1:c.dt_explicit_t1 ~run_seed:c.dt_run_seed c.dt_circuit);
  }

let clifford_spec : clifford_case Harness.spec =
  {
    Harness.name = "clifford";
    gen =
      (fun rng ->
        let machine = Gen.one_of Device.Machines.all rng in
        let max_qubits = min 4 (Device.Machine.n_qubits machine) in
        let body = Gen.clifford_body ~max_qubits ~max_gates:14 rng in
        let n = body.Circuit.n_qubits in
        (* A non-Clifford tail in ~1/3 of cases exercises the hybrid
           (tableau-prefix + dense-tail) dispatch path. *)
        let body =
          if Gen.bool 0.35 rng then
            Circuit.append body
              (Gen.list_n (Gen.int_range 1 4) (Gen.gate ~n_qubits:n) rng)
          else body
        in
        let c = Circuit.append body (List.init n (fun q -> G.Measure q)) in
        {
          cl_machine = machine;
          cl_run_seed = Gen.int_range 0 1_000_000 rng;
          cl_circuit = c;
        });
    shrink =
      Shrink.lift
        ~get:(fun c -> c.cl_circuit)
        ~set:(fun c circuit -> { c with cl_circuit = circuit })
        Shrink.circuit;
    show =
      (fun c ->
        Printf.sprintf "machine=%s seed=%d\n%s" c.cl_machine.Device.Machine.name
          c.cl_run_seed (show_circuit c.cl_circuit));
    prop =
      (fun c ->
        check_clifford ~machine:c.cl_machine ~run_seed:c.cl_run_seed c.cl_circuit);
  }

let layout_spec : layout_case Harness.spec =
  {
    Harness.name = "layout";
    gen =
      (fun rng ->
        let machine = Gen.machine rng in
        let max_qubits = min 5 (Device.Machine.n_qubits machine) in
        {
          ly_machine = machine;
          ly_day = Gen.day rng;
          ly_circuit = Gen.circuit ~max_qubits ~max_gates:14 rng;
        });
    shrink =
      Shrink.lift
        ~get:(fun c -> c.ly_circuit)
        ~set:(fun c circuit -> { c with ly_circuit = circuit })
        Shrink.circuit;
    show =
      (fun c ->
        Printf.sprintf "machine=%s day=%d\n%s" c.ly_machine.Device.Machine.name
          c.ly_day (show_circuit c.ly_circuit));
    prop =
      (fun c -> check_layout ~machine:c.ly_machine ~day:c.ly_day c.ly_circuit);
  }

(* ---------- reports ---------- *)

let catalog =
  [
    ("roundtrip", "emit -> parse reproduces the circuit for all three vendors");
    ("semantic", "statevector and density simulators agree on ideal outputs");
    ( "dataflow",
      "static dead-gate and Clifford-tableau facts agree with simulation" );
    ("schedule", "every level and router/peephole ablation preserves semantics");
    ("determinism", "Sim.Runner outcomes identical across -j 1/2/8");
    ( "clifford",
      "stabilizer tableau agrees with the dense backend on Clifford circuits" );
    ( "layout",
      "B&B and SMT agree on the max-min objective; cache hits \
       score identically to cold solves" );
  ]

type failure_report = {
  case_index : int;
  message : string;
  original_message : string;
  shrunk_show : string;
  repro : string;
  shrink_steps : int;
}

type report = {
  oracle : string;
  seed : int;
  cases : int;
  cases_run : int;
  failure : failure_report option;
}

let machine_expr (m : Device.Machine.t) =
  Printf.sprintf "(Option.get (Device.Machines.find %S))" m.Device.Machine.name

let run_spec ~seed ~cases (spec : 'a Harness.spec) ~(repro : 'a -> string) =
  let o = Harness.run ~seed ~cases spec in
  {
    oracle = spec.Harness.name;
    seed;
    cases;
    cases_run = o.Harness.cases_run;
    failure =
      Option.map
        (fun (f : 'a Harness.failure) ->
          {
            case_index = f.Harness.case_index;
            message = f.Harness.shrunk_message;
            original_message = f.Harness.original_message;
            shrunk_show = spec.Harness.show f.Harness.shrunk;
            repro = repro f.Harness.shrunk;
            shrink_steps = f.Harness.shrink_steps;
          })
        o.Harness.failure;
  }

let run ~seed ~cases name =
  match name with
  | "roundtrip" ->
    Ok
      (run_spec ~seed ~cases roundtrip_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"roundtrip"
             ~check_expr:
               (Printf.sprintf
                  "Proptest.Oracle.check_roundtrip Proptest.Oracle.%s circuit"
                  (vendor_ctor c.rt_vendor))
             c.rt_circuit))
  | "semantic" ->
    Ok
      (run_spec ~seed ~cases semantic_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"semantic"
             ~check_expr:"Proptest.Oracle.check_semantic circuit" c))
  | "dataflow" ->
    Ok
      (run_spec ~seed ~cases dataflow_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"dataflow"
             ~check_expr:"Proptest.Oracle.check_dataflow circuit" c))
  | "schedule" ->
    Ok
      (run_spec ~seed ~cases schedule_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"schedule"
             ~check_expr:
               (Printf.sprintf
                  "Proptest.Oracle.check_schedule ~machine:%s \
                   ~level:Triq.Pipeline.%s ~router:Triq.Pass.Config.%s \
                   ~peephole:%b ~day:%d circuit"
                  (machine_expr c.sc_machine) (level_ctor c.sc_level)
                  (router_ctor c.sc_router) c.sc_peephole c.sc_day)
             c.sc_circuit))
  | "determinism" ->
    Ok
      (run_spec ~seed ~cases determinism_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"determinism"
             ~check_expr:
               (Printf.sprintf
                  "Proptest.Oracle.check_determinism ~machine:%s \
                   ~sample_counts:%b ~explicit_t1:%b ~run_seed:%d circuit"
                  (machine_expr c.dt_machine) c.dt_sample_counts
                  c.dt_explicit_t1 c.dt_run_seed)
             c.dt_circuit))
  | "clifford" ->
    Ok
      (run_spec ~seed ~cases clifford_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"clifford"
             ~check_expr:
               (Printf.sprintf
                  "Proptest.Oracle.check_clifford ~machine:%s ~run_seed:%d \
                   circuit"
                  (machine_expr c.cl_machine) c.cl_run_seed)
             c.cl_circuit))
  | "layout" ->
    Ok
      (run_spec ~seed ~cases layout_spec ~repro:(fun c ->
           Repro.alcotest_case ~oracle:"layout"
             ~check_expr:
               (Printf.sprintf
                  "Proptest.Oracle.check_layout ~machine:%s ~day:%d circuit"
                  (machine_expr c.ly_machine) c.ly_day)
             c.ly_circuit))
  | other ->
    Error
      (Printf.sprintf "unknown oracle %S (known: %s)" other
         (String.concat ", " (List.map fst catalog)))

let run_all ~seed ~cases =
  List.map
    (fun (name, _) ->
      match run ~seed ~cases name with Ok r -> r | Error msg -> failwith msg)
    catalog

let indent_block prefix s =
  String.split_on_char '\n' s
  |> List.map (fun line -> if line = "" then line else prefix ^ line)
  |> String.concat "\n"

let report_text r =
  match r.failure with
  | None ->
    Printf.sprintf "%-12s %d cases, seed %d: ok" r.oracle r.cases r.seed
  | Some f ->
    String.concat "\n"
      [
        Printf.sprintf "%-12s %d cases, seed %d: FAIL at case %d (%d shrink steps)"
          r.oracle r.cases r.seed f.case_index f.shrink_steps;
        "  message: " ^ f.message;
        "  shrunk counterexample:";
        indent_block "    " f.shrunk_show;
        "  repro (paste into test/test_proptest.ml):";
        indent_block "    " f.repro;
      ]

let report_json r =
  let open Obs.Json in
  let head =
    [
      ("oracle", Str r.oracle);
      ("seed", Int r.seed);
      ("cases", Int r.cases);
      ("cases_run", Int r.cases_run);
    ]
  in
  match r.failure with
  | None -> Obj (head @ [ ("status", Str "ok") ])
  | Some f ->
    Obj
      (head
      @ [
          ("status", Str "fail");
          ("case", Int f.case_index);
          ("shrink_steps", Int f.shrink_steps);
          ("message", Str f.message);
          ("original_message", Str f.original_message);
          ("shrunk", Str f.shrunk_show);
          ("repro", Str f.repro);
        ])
