module Rng = Mathkit.Rng
module Machine = Device.Machine
module Compiled = Triq.Compiled
module Tableau = Dataflow.Tableau

type outcome = {
  distribution : (string * float) list;
  counts : (string * int) list;
  success_rate : float;
  dominant_correct : bool;
  trials : int;
  trajectories : int;
}

(* Trajectories are grouped into fixed-size blocks: a block is the unit of
   work handed to the domain pool, and block partial sums are folded in
   block order on the calling domain. Because the blocking (and the
   per-trajectory RNG streams) never depend on the pool size, the result
   is bit-for-bit identical for every [-j]. *)
let traj_block = 25

module Config = struct
  type backend = Auto | Statevector | Stabilizer

  let backend_of_string = function
    | "auto" -> Some Auto
    | "statevector" -> Some Statevector
    | "stabilizer" -> Some Stabilizer
    | _ -> None

  let backend_to_string = function
    | Auto -> "auto"
    | Statevector -> "statevector"
    | Stabilizer -> "stabilizer"

  type t = {
    seed : int;
    trials : int;
    trajectories : int;
    day : int option;
    sample_counts : bool;
    explicit_t1 : bool;
    pool : Parallel.Pool.t option;
    backend : backend;
    fusion : bool;
  }

  let default =
    {
      seed = 0xC0FFEE;
      trials = 8192;
      trajectories = 300;
      day = None;
      sample_counts = false;
      explicit_t1 = false;
      pool = None;
      backend = Auto;
      fusion = true;
    }

  let make ?(seed = 0xC0FFEE) ?(trials = 8192) ?(trajectories = 300) ?day
      ?(sample_counts = false) ?(explicit_t1 = false) ?pool ?(backend = Auto)
      ?(fusion = true) () =
    {
      seed;
      trials;
      trajectories;
      day;
      sample_counts;
      explicit_t1;
      pool;
      backend;
      fusion;
    }
end

let m_trajectories = Obs.Metrics.counter "sim.trajectories"
let m_blocks = Obs.Metrics.counter "sim.blocks"

(* One prepared (compacted) gate: operands are compact simulator
   indices, matrices/error probabilities precomputed. *)
type pgate = {
  cg : Ir.Gate.t;
  matrix : Mathkit.Matrix.t;
  p_err : float;
  gamma : float;
}

(* Under [Auto], circuits whose Clifford prefix has at least this many
   gates run the prefix on the stabilizer tableau before materializing
   amplitudes for the dense tail. *)
let hybrid_threshold = 4

let simulate ?(config = Config.default) compiled spec =
  let {
    Config.seed;
    trials;
    trajectories;
    day;
    sample_counts;
    explicit_t1;
    pool;
    backend;
    fusion;
  } =
    config
  in
  (* Zero trajectories would silently divide the averaged distribution by
     zero and return all-NaN outcomes; zero trials the same for counts. *)
  if trials < 1 then invalid_arg "Runner.simulate: trials must be >= 1";
  if trajectories < 1 then invalid_arg "Runner.simulate: trajectories must be >= 1";
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  Obs.Span.with_span
    ~attrs:
      [
        ("machine", Obs.Span.Str compiled.Compiled.machine.Machine.name);
        ("trajectories", Obs.Span.Int trajectories);
        ("trials", Obs.Span.Int trials);
      ]
    "sim.run"
  @@ fun () ->
  let hardware = compiled.Compiled.hardware in
  let machine = compiled.Compiled.machine in
  (* [day] overrides the calibration the executable runs under — by default
     the one it was compiled against; passing a later day models running a
     stale executable after the machine drifted. *)
  let day = Option.value ~default:compiled.Compiled.day day in
  let calibration = Machine.calibration machine ~day in
  let noise = Noise.create machine calibration in
  (* Simulate only the qubits the hardware circuit touches. *)
  let used = Ir.Circuit.used_qubits hardware in
  let k = List.length used in
  if k = 0 then invalid_arg "Runner.simulate: empty circuit";
  if k > 20 then invalid_arg "Runner.simulate: circuit touches too many qubits to simulate";
  (* Hardware qubit -> compact simulated index, O(1) on the hot path. *)
  let qubit_of =
    let table = Array.make (1 + List.fold_left max 0 used) (-1) in
    List.iteri (fun i q -> table.(q) <- i) used;
    fun h -> table.(h)
  in
  (* Per-gate precomputation: matrices, compact operands, error probs. *)
  let body =
    List.filter (fun g -> not (Ir.Gate.is_measure g)) hardware.Ir.Circuit.gates
  in
  let prepared =
    Array.of_list
      (List.map
         (fun g ->
           (* With explicit T1 the decoherence contribution is modelled as a
              relaxation channel rather than folded into the Pauli error. *)
           let p =
             if explicit_t1 then Noise.gate_error_prob_raw noise g
             else Noise.gate_error_prob noise g
           in
           let gamma = if explicit_t1 then Noise.relaxation_gamma noise g else 0.0 in
           match (g : Ir.Gate.t) with
           | One (kind, q) ->
             {
               cg = Ir.Gate.One (kind, qubit_of q);
               matrix = Ir.Matrices.one_q kind;
               p_err = p;
               gamma;
             }
           | Two (kind, a, b) ->
             {
               cg = Ir.Gate.Two (kind, qubit_of a, qubit_of b);
               matrix = Ir.Matrices.two_q kind;
               p_err = p;
               gamma;
             }
           | Measure _ | Ccx _ | Cswap _ -> assert false)
         body)
  in
  let n_gates = Array.length prepared in
  (* Backend dispatch: derived Clifford actions (memoized per gate
     shape) decide how much of the circuit the polynomial-time tableau
     can carry. Explicit T1 relaxation is not a Clifford channel, so it
     pins the dense backend. *)
  let actions =
    Array.map (fun pg -> Tableau.Action.of_gate pg.cg) prepared
  in
  let qs_arr =
    Array.map (fun pg -> Array.of_list (Ir.Gate.qubits pg.cg)) prepared
  in
  let prefix_len =
    let i = ref 0 in
    while !i < n_gates && actions.(!i) <> None do incr i done;
    !i
  in
  let mode =
    match backend with
    | Config.Statevector -> `Sv
    | Config.Stabilizer ->
      if explicit_t1 then
        invalid_arg
          "Runner.simulate: stabilizer backend cannot model explicit T1 \
           relaxation";
      if prefix_len < n_gates then
        invalid_arg
          "Runner.simulate: stabilizer backend requires a Clifford-only \
           circuit";
      `Stab
    | Config.Auto ->
      if explicit_t1 then `Sv
      else if prefix_len = n_gates then `Stab
      else if prefix_len >= hybrid_threshold then `Hybrid
      else `Sv
  in
  let mode_name =
    match mode with `Stab -> "stabilizer" | `Hybrid -> "hybrid" | `Sv -> "statevector"
  in
  (* Fusion plans (statevector paths only; explicit T1 interleaves a
     stochastic channel after every gate, which fused groups cannot
     honor). The plan depends only on the circuit, never on the pool or
     the error draws, so cross-pool determinism is preserved. *)
  let use_fusion = fusion && not explicit_t1 in
  let members_of lo hi =
    Array.init (hi - lo) (fun j ->
        let pg = prepared.(lo + j) in
        { Fusion.idx = lo + j; gate = pg.cg; matrix = pg.matrix })
  in
  let full_plan, tail_plan, apps =
    Obs.Span.with_span
      ~attrs:
        [
          ("backend", Obs.Span.Str mode_name);
          ("fusion", Obs.Span.Str (if use_fusion then "on" else "off"));
          ("gates", Obs.Span.Int n_gates);
          ("clifford_prefix", Obs.Span.Int prefix_len);
        ]
      "sim.prepare"
    @@ fun () ->
    (* Tableau-borne gates (the whole circuit under [`Stab], the prefix
       under [`Hybrid]) compile to dense per-gate lookup tables. *)
    let n_apps =
      match mode with `Stab -> n_gates | `Hybrid -> prefix_len | `Sv -> 0
    in
    let apps =
      Array.init n_apps (fun i ->
          Tableau.compile_action (Option.get actions.(i)) qs_arr.(i))
    in
    match mode with
    | `Sv when use_fusion && n_gates > 0 ->
      (Some (Fusion.plan ~n:k (members_of 0 n_gates)), None, apps)
    | `Hybrid when use_fusion && prefix_len < n_gates ->
      (None, Some (Fusion.plan ~n:k (members_of prefix_len n_gates)), apps)
    | _ -> (None, None, apps)
  in
  let pauli = [| Ir.Matrices.one_q X; Ir.Matrices.one_q Y; Ir.Matrices.one_q Z |] in
  let tab_pauli = [| Tableau.X; Tableau.Y; Tableau.Z |] in
  (* A 2Q error draws a non-identity Pauli pair by rejection. *)
  let rec draw_two rng =
    let pa = Rng.int rng 4 and pb = Rng.int rng 4 in
    if pa = 0 && pb = 0 then draw_two rng else (pa, pb)
  in
  let inject_sv state rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> Statevector.apply_one state pauli.(Rng.int rng 3) q
    | Two (_, a, b) ->
      let pa, pb = draw_two rng in
      if pa > 0 then Statevector.apply_one state pauli.(pa - 1) a;
      if pb > 0 then Statevector.apply_one state pauli.(pb - 1) b
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  let inject_tab tab rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> Tableau.apply_pauli tab q tab_pauli.(Rng.int rng 3)
    | Two (_, a, b) ->
      let pa, pb = draw_two rng in
      if pa > 0 then Tableau.apply_pauli tab a tab_pauli.(pa - 1);
      if pb > 0 then Tableau.apply_pauli tab b tab_pauli.(pb - 1)
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  (* Same error-Pauli draws as [inject_tab] (identical RNG consumption),
     but as qubit-indexed bit masks for single-row propagation. Pauli
     index order matches [tab_pauli]: 0 = X, 1 = Y, 2 = Z. *)
  let mask_of p q =
    match p with
    | 0 -> (1 lsl q, 0)
    | 1 -> (1 lsl q, 1 lsl q)
    | _ -> (0, 1 lsl q)
  in
  let err_masks rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> mask_of (Rng.int rng 3) q
    | Two (_, a, b) ->
      let pa, pb = draw_two rng in
      let xa, za = if pa > 0 then mask_of (pa - 1) a else (0, 0) in
      let xb, zb = if pb > 0 then mask_of (pb - 1) b else (0, 0) in
      (xa lor xb, za lor zb)
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  (* Every trajectory draws from its own stream, split off the master in
     trajectory order; the remaining master stream serves shot sampling.
     Splitting decouples a trajectory's randomness from whichever domain
     happens to execute it. *)
  let master = Rng.create seed in
  let traj_rng = Array.make (max trajectories 1) master in
  for t = 0 to trajectories - 1 do
    traj_rng.(t) <- Rng.split master
  done;
  let counts_rng = Rng.split master in
  (* Sample the error pattern first: clean trajectories (the common case on
     good mappings) reuse the cached ideal output without re-simulating. *)
  let sample_error_flags rng =
    let any = ref false in
    let flags = Array.make n_gates false in
    for i = 0 to n_gates - 1 do
      let p = prepared.(i).p_err in
      let e = p > 0.0 && Rng.bool rng p in
      if e then any := true;
      flags.(i) <- e
    done;
    (flags, !any)
  in
  (* Unfused statevector execution of gates [lo, hi) with error
     injection — the fusion-off and explicit-T1 path. *)
  let run_range_sv state rng flags lo hi =
    for i = lo to hi - 1 do
      let pg = prepared.(i) in
      (match pg.cg with
      | One (_, q) -> Statevector.apply_one state pg.matrix q
      | Two (_, a, b) -> Statevector.apply_two state pg.matrix a b
      | Measure _ | Ccx _ | Cswap _ -> assert false);
      if flags.(i) then inject_sv state rng pg.cg;
      if pg.gamma > 0.0 then
        match pg.cg with
        | One (_, q) -> ignore (Statevector.relax state q ~gamma:pg.gamma rng)
        | Two (_, a, b) ->
          ignore (Statevector.relax state a ~gamma:pg.gamma rng);
          ignore (Statevector.relax state b ~gamma:pg.gamma rng)
        | Measure _ | Ccx _ | Cswap _ -> assert false
    done
  in
  (* Fused execution: a step whose gates are all clean applies as one
     kernel pass; a step containing an erred gate falls back to its
     member gates one by one, injecting the Pauli right after the erred
     gate (per-wire order is preserved by construction, so this is
     exact). *)
  let run_plan state rng flags plan =
    Array.iter
      (fun step ->
        let ms = Fusion.step_members step in
        let erred = Array.exists (fun (m : Fusion.member) -> flags.(m.idx)) ms in
        if erred then
          Array.iter
            (fun (m : Fusion.member) ->
              Fusion.apply_member state m;
              if flags.(m.idx) then inject_sv state rng m.gate)
            ms
        else Fusion.apply_step state step)
      (Fusion.steps plan)
  in
  (* Tableau execution of the (Clifford) gates [lo, hi): Pauli errors
     are themselves Clifford, so erred trajectories stay polynomial. *)
  let run_range_tab tab rng flags lo hi =
    for i = lo to hi - 1 do
      Tableau.apply_app tab apps.(i);
      if flags.(i) then inject_tab tab rng prepared.(i).cg
    done
  in
  let clean_tab hi =
    let tab = Tableau.init k in
    for i = 0 to hi - 1 do
      Tableau.apply_app tab apps.(i)
    done;
    tab
  in
  (* Per-mode shared precomputation. [`Stab]: the ideal end-state's
     frozen read-out — error trajectories never touch a tableau, they
     only propagate each error Pauli to the circuit end (one row, O(1)
     per gate) and re-price the support's base point. [`Hybrid]: the
     clean prefix state, copied whenever no prefix gate erred (the
     common case — the prefix is a minority of the gates). *)
  let stab_readout =
    match mode with
    | `Stab -> Some (Tableau.readout (clean_tab n_gates))
    | `Hybrid | `Sv -> None
  in
  let prefix_state =
    match mode with
    | `Hybrid -> Some (Statevector.of_tableau (clean_tab prefix_len))
    | `Stab | `Sv -> None
  in
  let clean_range_sv state lo hi =
    for i = lo to hi - 1 do
      let pg = prepared.(i) in
      match pg.cg with
      | One (_, q) -> Statevector.apply_one state pg.matrix q
      | Two (_, a, b) -> Statevector.apply_two state pg.matrix a b
      | Measure _ | Ccx _ | Cswap _ -> assert false
    done
  in
  let run_trajectory rng flags =
    match mode with
    | `Stab ->
      (* Sign-flip trick: the end-state of an erred trajectory is
         P' |ideal> for some Pauli P' (each injected error conjugated
         through the remaining gates), and a Pauli only flips the signs
         of the stabilizer rows it anticommutes with. Flips from
         successive errors xor, so order is irrelevant. *)
      let readout = Option.get stab_readout in
      let flips = ref 0 in
      for i = 0 to n_gates - 1 do
        if flags.(i) then begin
          let xm0, zm0 = err_masks rng prepared.(i).cg in
          let xm = ref xm0 and zm = ref zm0 in
          for j = i + 1 to n_gates - 1 do
            let x', z' = Tableau.conjugate_masks apps.(j) ~xm:!xm ~zm:!zm in
            xm := x';
            zm := z'
          done;
          flips := !flips lxor Tableau.flip_mask readout ~xm:!xm
        end
      done;
      Tableau.readout_probabilities readout ~flips:!flips
    | `Hybrid ->
      let prefix_erred =
        let e = ref false in
        for i = 0 to prefix_len - 1 do
          if flags.(i) then e := true
        done;
        !e
      in
      let state =
        if prefix_erred then begin
          let tab = Tableau.init k in
          run_range_tab tab rng flags 0 prefix_len;
          Statevector.of_tableau tab
        end
        else Statevector.copy (Option.get prefix_state)
      in
      (match tail_plan with
      | Some plan -> run_plan state rng flags plan
      | None -> run_range_sv state rng flags prefix_len n_gates);
      Statevector.probabilities state
    | `Sv ->
      let state = Statevector.init k in
      (match full_plan with
      | Some plan -> run_plan state rng flags plan
      | None -> run_range_sv state rng flags 0 n_gates);
      Statevector.probabilities state
  in
  (* Clean trajectories all coincide: compute the ideal output once and
     reuse it whenever the sampled error pattern is empty. *)
  let ideal_probs =
    match mode with
    | `Stab ->
      Tableau.readout_probabilities (Option.get stab_readout) ~flips:0
    | `Hybrid ->
      let state = Statevector.copy (Option.get prefix_state) in
      (match tail_plan with
      | Some plan -> Fusion.run_clean state plan
      | None -> clean_range_sv state prefix_len n_gates);
      Statevector.probabilities state
    | `Sv ->
      let state = Statevector.init k in
      (match full_plan with
      | Some plan -> Fusion.run_clean state plan
      | None -> clean_range_sv state 0 n_gates);
      Statevector.probabilities state
  in
  let dim = 1 lsl k in
  let run_block b =
    let partial = Array.make dim 0.0 in
    let last = min trajectories ((b + 1) * traj_block) - 1 in
    for t = b * traj_block to last do
      let rng = traj_rng.(t) in
      let probs =
        let flags, any = sample_error_flags rng in
        (* Explicit relaxation is stochastic in every trajectory, so the
           clean-trajectory shortcut only applies without it. *)
        if (not any) && not explicit_t1 then ideal_probs
        else run_trajectory rng flags
      in
      for i = 0 to dim - 1 do
        partial.(i) <- partial.(i) +. probs.(i)
      done
    done;
    partial
  in
  let n_blocks = (trajectories + traj_block - 1) / traj_block in
  Obs.Metrics.incr m_trajectories ~by:trajectories;
  Obs.Metrics.incr m_blocks ~by:n_blocks;
  (* Each trajectory block gets its own span so a Chrome trace shows how
     blocks spread across pool domains (tid = domain). The wrapper only
     exists while the sink is enabled — the common path hands the bare
     closure to the pool. *)
  let traced_block =
    if Obs.Span.enabled () then fun b ->
      Obs.Span.with_span
        ~attrs:[ ("block", Obs.Span.Int b) ]
        "sim.block"
        (fun () -> run_block b)
    else run_block
  in
  let partials = Parallel.Pool.map pool traced_block (List.init n_blocks Fun.id) in
  let avg = Array.make dim 0.0 in
  List.iter
    (fun partial ->
      for i = 0 to dim - 1 do
        avg.(i) <- avg.(i) +. partial.(i)
      done)
    partials;
  for i = 0 to dim - 1 do
    avg.(i) <- avg.(i) /. float_of_int trajectories
  done;
  (* Readout: program qubits in spec order -> hardware -> compact. *)
  let measured_program = spec.Ir.Spec.measured in
  let compact_positions =
    List.map
      (fun p ->
        match List.assoc_opt p compiled.Compiled.readout_map with
        | Some hw -> qubit_of hw
        | None ->
          invalid_arg
            (Printf.sprintf "Runner.simulate: program qubit %d is not measured" p))
      measured_program
  in
  let flip =
    Array.of_list
      (List.map
         (fun p ->
           let hw = List.assoc p compiled.Compiled.readout_map in
           Noise.readout_flip_prob noise hw)
         measured_program)
  in
  let projected = Dist.project avg k compact_positions in
  let final = Dist.corrupt_readout projected flip in
  let distribution = Dist.to_strings final in
  let counts =
    if sample_counts then begin
      (* Realistic multinomial shot noise instead of deterministic
         largest-remainder rounding. *)
      let table = Hashtbl.create 16 in
      let outcomes = Array.of_list distribution in
      let cumulative =
        let acc = ref 0.0 in
        Array.map
          (fun (_, p) ->
            acc := !acc +. p;
            !acc)
          outcomes
      in
      let total = cumulative.(Array.length cumulative - 1) in
      for _ = 1 to trials do
        let r = Rng.float counts_rng *. total in
        let rec find i =
          if i >= Array.length cumulative - 1 || cumulative.(i) >= r then i
          else find (i + 1)
        in
        let bits, _ = outcomes.(find 0) in
        Hashtbl.replace table bits (1 + Option.value ~default:0 (Hashtbl.find_opt table bits))
      done;
      Hashtbl.fold (fun bits n acc -> (bits, n) :: acc) table []
      |> List.sort (fun (_, n1) (_, n2) -> compare n2 n1)
    end
    else Dist.to_counts distribution trials
  in
  {
    distribution;
    counts;
    success_rate = Ir.Spec.success_rate spec counts;
    dominant_correct = Ir.Spec.dominates spec counts;
    trials;
    trajectories;
  }

let ideal_distribution (circuit : Ir.Circuit.t) ~measured =
  let state = Statevector.run circuit in
  let k = circuit.Ir.Circuit.n_qubits in
  Dist.to_strings (Dist.project (Statevector.probabilities state) k measured)
