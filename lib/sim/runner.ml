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
let m_erred = Obs.Metrics.counter "sim.trajectories.erred"

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

(* Clean-state checkpoints of a fused plan hold at most this many floats
   (512 KiB) per simulation; past it they are taken every few steps. *)
let checkpoint_floats = 1 lsl 16

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
  (* The tableau-borne span [0, span): the whole circuit under [`Stab],
     the prefix under [`Hybrid]. *)
  let span = match mode with `Stab -> n_gates | `Hybrid -> prefix_len | `Sv -> 0 in
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
  (* [plan] fuses the dense part: the whole circuit under [`Sv], the
     tail under [`Hybrid]. *)
  let plan, apps =
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
    (* Tableau-borne gates compile to dense per-gate lookup tables. *)
    let apps =
      Array.init span (fun i ->
          Tableau.compile_action (Option.get actions.(i)) qs_arr.(i))
    in
    match mode with
    | `Sv when use_fusion && n_gates > 0 ->
      (Some (Fusion.plan ~n:k (members_of 0 n_gates)), apps)
    | `Hybrid when use_fusion && prefix_len < n_gates ->
      (Some (Fusion.plan ~n:k (members_of prefix_len n_gates)), apps)
    | _ -> (None, apps)
  in
  let pauli = [| Ir.Matrices.one_q X; Ir.Matrices.one_q Y; Ir.Matrices.one_q Z |] in
  (* A 2Q error draws a non-identity Pauli pair by rejection, returned
     as [4 * pa + pb] (0 = I, then X, Y, Z). *)
  let rec draw_two rng =
    let pa = Rng.int rng 4 and pb = Rng.int rng 4 in
    if pa = 0 && pb = 0 then draw_two rng else (4 * pa) + pb
  in
  let inject_sv state rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> Statevector.apply_one state pauli.(Rng.int rng 3) q
    | Two (_, a, b) ->
      let code = draw_two rng in
      let pa = code lsr 2 and pb = code land 3 in
      if pa > 0 then Statevector.apply_one state pauli.(pa - 1) a;
      if pb > 0 then Statevector.apply_one state pauli.(pb - 1) b
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  (* Pauli frame over the tableau-borne span: an error Pauli injected
     after gate [i] is not replayed but looked up. Entry
     [4 * i + 2 * slot + c] is where X (c = 0) or Z (c = 1) on operand
     [slot] of gate [i] lands at the end of the span, packed as
     [xm lor (zm lsl frame_shift)]. Conjugation is linear over GF(2) up
     to phase, so a trajectory's frame is the xor of its errors'
     entries, Y being X xor Z. One backward pass builds the table:
     [img_x]/[img_z] hold the images of X_q and Z_q from the current
     gate to the end of the span, and stepping back across gate [i]
     re-images only its operands. [k <= 20] keeps both masks apart. *)
  let frame_shift = 30 in
  let frame =
    let table = Array.make (4 * span) 0 in
    let img_x = Array.init k (fun q -> 1 lsl q) in
    let img_z = Array.init k (fun q -> 1 lsl (q + frame_shift)) in
    for i = span - 1 downto 0 do
      let qs = qs_arr.(i) in
      Array.iteri
        (fun slot q ->
          table.((4 * i) + (2 * slot)) <- img_x.(q);
          table.((4 * i) + (2 * slot) + 1) <- img_z.(q))
        qs;
      let image ~xm ~zm =
        let xm, zm = Tableau.conjugate_masks apps.(i) ~xm ~zm in
        Array.fold_left
          (fun acc q ->
            let acc = if (xm lsr q) land 1 = 1 then acc lxor img_x.(q) else acc in
            if (zm lsr q) land 1 = 1 then acc lxor img_z.(q) else acc)
          0 qs
      in
      let nx = Array.map (fun q -> image ~xm:(1 lsl q) ~zm:0) qs in
      let nz = Array.map (fun q -> image ~xm:0 ~zm:(1 lsl q)) qs in
      Array.iteri
        (fun slot q ->
          img_x.(q) <- nx.(slot);
          img_z.(q) <- nz.(slot))
        qs
    done;
    table
  in
  (* Pauli [p] (0 = X, 1 = Y, 2 = Z) on the operand whose X entry is at
     [e]. *)
  let frame_term e p =
    (if p <> 2 then frame.(e) else 0) lxor if p <> 0 then frame.(e + 1) else 0
  in
  (* Draws the span's error Paulis in gate order, exactly as replaying
     them would, and returns the packed frame at the end of the span. *)
  let draw_frame rng flags =
    let acc = ref 0 in
    for i = 0 to span - 1 do
      if flags.(i) then
        match prepared.(i).cg with
        | One _ -> acc := !acc lxor frame_term (4 * i) (Rng.int rng 3)
        | Two _ ->
          let code = draw_two rng in
          let pa = code lsr 2 and pb = code land 3 in
          if pa > 0 then acc := !acc lxor frame_term (4 * i) (pa - 1);
          if pb > 0 then acc := !acc lxor frame_term ((4 * i) + 2) (pb - 1)
        | Measure _ | Ccx _ | Cswap _ -> assert false
    done;
    !acc
  in
  let frame_x f = f land ((1 lsl frame_shift) - 1) and frame_z f = f lsr frame_shift in
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
  let sample_error_flags rng flags =
    let any = ref false in
    for i = 0 to n_gates - 1 do
      let p = prepared.(i).p_err in
      let e = p > 0.0 && Rng.bool rng p in
      if e then any := true;
      flags.(i) <- e
    done;
    !any
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
  let clean_tab hi =
    let tab = Tableau.init k in
    for i = 0 to hi - 1 do
      Tableau.apply_app tab apps.(i)
    done;
    tab
  in
  (* [`Stab]: the ideal end-state's frozen read-out — an erred
     trajectory is its frame's sign flips on it (a Pauli only flips the
     signs of the stabilizer rows it anticommutes with). The dense modes
     start from [start]: |0...0> under [`Sv], the clean prefix state
     under [`Hybrid]. *)
  let stab_readout =
    match mode with
    | `Stab -> Some (Tableau.readout (clean_tab n_gates))
    | `Hybrid | `Sv -> None
  in
  let start =
    match mode with
    | `Hybrid -> Some (Statevector.of_tableau (clean_tab prefix_len))
    | `Sv -> Some (Statevector.init k)
    | `Stab -> None
  in
  let dense_lo = match mode with `Hybrid -> prefix_len | `Stab | `Sv -> 0 in
  let steps = match plan with Some p -> Fusion.steps p | None -> [||] in
  let n_steps = Array.length steps in
  (* Gate -> fused step, so a trajectory finds its first erred step and
     marks the steps that must replay member by member. *)
  let step_of = Array.make n_gates (-1) in
  Array.iteri
    (fun s st ->
      Array.iter (fun (m : Fusion.member) -> step_of.(m.idx) <- s) (Fusion.step_members st))
    steps;
  (* The clean run of the dense part, done once; it ends in the ideal
     state. Along a fused plan it keeps checkpoints: [checkpoints.(c)]
     is the clean state before step [c * stride], only read by the
     trajectories, and [stride] keeps them within [checkpoint_floats]. *)
  let stride, checkpoints, ideal_state =
    match start with
    | None -> (1, [||], None)
    | Some start -> (
      let state = Statevector.copy start in
      match plan with
      | None ->
        for i = dense_lo to n_gates - 1 do
          let pg = prepared.(i) in
          match pg.cg with
          | One (_, q) -> Statevector.apply_one state pg.matrix q
          | Two (_, a, b) -> Statevector.apply_two state pg.matrix a b
          | Measure _ | Ccx _ | Cswap _ -> assert false
        done;
        (1, [||], Some state)
      | Some _ ->
        let per = max 1 (checkpoint_floats / (2 * (1 lsl k))) in
        let stride = max 1 ((n_steps + per - 1) / per) in
        let checkpoints = Array.make (max 1 ((n_steps + stride - 1) / stride)) start in
        Array.iteri
          (fun s st ->
            if s > 0 && s mod stride = 0 then
              checkpoints.(s / stride) <- Statevector.copy state;
            Fusion.apply_step state st)
          steps;
        (stride, checkpoints, Some state))
  in
  (* Fused execution from step [from]: a step whose gates are all clean
     applies as one kernel pass; a step marked erred for trajectory [t]
     falls back to its member gates one by one, injecting the Pauli
     right after the erred gate (per-wire order is preserved by
     construction, so this is exact). *)
  let run_steps state rng flags mark t from =
    for s = from to n_steps - 1 do
      let st = steps.(s) in
      if mark.(s) = t then begin
        let ms = Fusion.step_members st in
        for j = 0 to Array.length ms - 1 do
          let m = ms.(j) in
          Fusion.apply_member state m;
          if flags.(m.idx) then inject_sv state rng m.gate
        done
      end
      else Fusion.apply_step state st
    done
  in
  (* Marks trajectory [t]'s erred steps and returns the first one
     ([n_steps] when the dense part is clean). *)
  let mark_steps flags mark t =
    let first = ref n_steps in
    for i = dense_lo to n_gates - 1 do
      if flags.(i) then begin
        let s = step_of.(i) in
        mark.(s) <- t;
        if s < !first then first := s
      end
    done;
    !first
  in
  (* The dense part of an erred trajectory. [state] already holds the
     state before gate [dense_lo] when [seeded]; otherwise the dense part
     starts clean, so it resumes from the last checkpoint before its
     first erred step. *)
  let run_dense state rng flags mark t ~seeded =
    match plan with
    | Some _ ->
      let first = mark_steps flags mark t in
      let from =
        if seeded then 0
        else begin
          let c = first / stride in
          Statevector.blit ~src:checkpoints.(c) ~dst:state;
          c * stride
        end
      in
      run_steps state rng flags mark t from
    | None ->
      if not seeded then Statevector.blit ~src:(Option.get start) ~dst:state;
      run_range_sv state rng flags dense_lo n_gates
  in
  (* Adds erred trajectory [t]'s output distribution into [partial]. *)
  let run_trajectory partial scratch rng flags mark t =
    match mode with
    | `Stab ->
      let readout = Option.get stab_readout in
      let flips = Tableau.flip_mask readout ~xm:(frame_x (draw_frame rng flags)) in
      Tableau.add_readout_probabilities readout ~flips partial
    | `Hybrid | `Sv ->
      let scratch = Option.get scratch in
      let prefix_erred =
        let e = ref false in
        for i = 0 to span - 1 do
          if flags.(i) then e := true
        done;
        !e
      in
      if prefix_erred then begin
        let f = draw_frame rng flags in
        Statevector.blit ~src:(Option.get start) ~dst:scratch;
        Statevector.apply_pauli scratch ~x:(frame_x f) ~z:(frame_z f)
      end;
      run_dense scratch rng flags mark t ~seeded:prefix_erred;
      Statevector.add_probabilities scratch partial
  in
  (* Clean trajectories all coincide: compute the ideal output once and
     reuse it whenever the sampled error pattern is empty. *)
  let ideal_probs =
    match (stab_readout, ideal_state) with
    | Some readout, _ -> Tableau.readout_probabilities readout ~flips:0
    | None, Some state -> Statevector.probabilities state
    | None, None -> assert false
  in
  let dim = 1 lsl k in
  (* Each block reuses one flags buffer, one scratch state and one step
     mark array across its trajectories. *)
  let run_block b =
    let partial = Array.make dim 0.0 in
    let flags = Array.make n_gates false in
    let scratch = Option.map Statevector.copy start in
    let mark = Array.make n_steps (-1) in
    let erred = ref 0 in
    let last = min trajectories ((b + 1) * traj_block) - 1 in
    for t = b * traj_block to last do
      let rng = traj_rng.(t) in
      (* Explicit relaxation is stochastic in every trajectory, so the
         clean-trajectory shortcut only applies without it. *)
      if sample_error_flags rng flags || explicit_t1 then begin
        incr erred;
        run_trajectory partial scratch rng flags mark t
      end
      else
        for i = 0 to dim - 1 do
          partial.(i) <- partial.(i) +. ideal_probs.(i)
        done
    done;
    Obs.Metrics.incr m_erred ~by:!erred;
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
