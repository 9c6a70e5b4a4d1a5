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

  let check t =
    if t.trials < 1 then Error "trials must be >= 1"
    else if t.trajectories < 1 then Error "trajectories must be >= 1"
    else if t.backend = Stabilizer && t.explicit_t1 then
      Error "stabilizer backend cannot model explicit T1 relaxation"
    else Ok ()
end

let m_trajectories = Obs.Metrics.counter "sim.trajectories"
let m_blocks = Obs.Metrics.counter "sim.blocks"
let m_erred = Obs.Metrics.counter "sim.trajectories.erred"

(* One prepared (compacted) gate: operands are compact simulator
   indices, the Clifford action precomputed. *)
type pgate = {
  cg : Ir.Gate.t;
  qs : int array;  (* [cg]'s operands, in order *)
  gamma : float;
  action : Tableau.Action.t option;
}

(* The executable as the simulator sees it: [k] touched qubits, the
   prepared gates, the ones that can err ([drawn], ascending: error
   probability above 0) with their probabilities as {!Rng.threshold}s
   alongside, and each measured bit's compact position and readout-flip
   probability, in spec order. *)
type prepared = {
  k : int;
  gates : pgate array;
  drawn : int array;
  drawn_thresholds : int array;
  positions : int list;
  flips : float array;
}

(* Under [Auto], circuits whose Clifford prefix has at least this many
   gates run the prefix on the stabilizer tableau before materializing
   amplitudes for the dense tail. *)
let hybrid_threshold = 4

(* Clean-state checkpoints of a fused plan hold at most this many floats
   (512 KiB) per simulation; past it they are taken every few steps. *)
let checkpoint_floats = 1 lsl 16

let prepare config compiled spec =
  let { Config.day; explicit_t1; _ } = config in
  Obs.Span.with_span "sim.prepare" @@ fun () ->
  (* Zero trajectories would silently divide the averaged distribution by
     zero and return all-NaN outcomes; zero trials the same for counts. *)
  Result.iter_error (fun msg -> invalid_arg ("Runner.simulate: " ^ msg)) (Config.check config);
  let hardware = compiled.Compiled.hardware in
  let machine = compiled.Compiled.machine in
  (* [day] overrides the calibration the executable runs under — by default
     the one it was compiled against; passing a later day models running a
     stale executable after the machine drifted. *)
  let day = Option.value ~default:compiled.Compiled.day day in
  let noise = Noise.create machine (Machine.calibration machine ~day) in
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
  (* Readout: program qubits in spec order -> hardware. A qubit the
     executable does not read out fails here, before any trajectory. *)
  let readout_hw =
    List.map
      (fun p ->
        match List.assoc_opt p compiled.Compiled.readout_map with
        | Some hw -> hw
        | None ->
          invalid_arg
            (Printf.sprintf "Runner.simulate: program qubit %d is not measured" p))
      spec.Ir.Spec.measured
  in
  let hw_gates =
    Array.of_list (List.filter (fun g -> not (Ir.Gate.is_measure g)) hardware.Ir.Circuit.gates)
  in
  let prepare_gate (g : Ir.Gate.t) =
    let cg : Ir.Gate.t =
      match g with
      | One (kind, q) -> One (kind, qubit_of q)
      | Two (kind, a, b) -> Two (kind, qubit_of a, qubit_of b)
      | Measure _ | Ccx _ | Cswap _ -> assert false
    in
    {
      cg;
      qs = Array.of_list (Ir.Gate.qubits cg);
      gamma = (if explicit_t1 then Noise.relaxation_gamma noise g else 0.0);
      action = Tableau.Action.of_gate cg;
    }
  in
  (* With explicit T1 the decoherence contribution is modelled as a
     relaxation channel rather than folded into the Pauli error. *)
  let error_prob g =
    if explicit_t1 then Noise.gate_error_prob_raw noise g else Noise.gate_error_prob noise g
  in
  let thresholds = Array.map (fun g -> Rng.threshold (error_prob g)) hw_gates in
  let drawn = Array.make (Array.fold_left (fun c t -> if t > 0 then c + 1 else c) 0 thresholds) 0 in
  let j = ref 0 in
  Array.iteri
    (fun i t ->
      if t > 0 then begin
        drawn.(!j) <- i;
        incr j
      end)
    thresholds;
  {
    k;
    gates = Array.map prepare_gate hw_gates;
    drawn;
    drawn_thresholds = Array.map (fun i -> thresholds.(i)) drawn;
    positions = List.map qubit_of readout_hw;
    flips = Array.of_list (List.map (Noise.readout_flip_prob noise) readout_hw);
  }

(* How erred trajectories run. [Clifford]: the tableau carries the
   whole circuit, and an erred trajectory is its Pauli frame's sign
   flips on the clean end state's frozen [readout] (a Pauli only flips
   the signs of the stabilizer rows it anticommutes with). [Dense]: a
   statevector carries gates [prefix, n) from [start] — |0...0> when
   [prefix = 0], else the clean state after the tableau-borne Clifford
   prefix, whose errors fold into a Pauli frame — either [Fused] or
   gate by gate ([Gates], each gate of [prefix, n) a fusion member
   with its kernel). [frame] covers the tableau-borne gates. *)
type path =
  | Clifford of { frame : int array; readout : Tableau.readout }
  | Dense of { prefix : int; frame : int array; start : Statevector.t; body : body }

and body =
  | Fused of {
      steps : Fusion.step array;
      step_of : int array;  (* gate -> its fused step *)
      stride : int;
      checkpoints : Statevector.t array;
          (* [checkpoints.(c)] is the clean state before step [c * stride] *)
    }
  | Gates of Fusion.member array

type plan = {
  path : path;
  ideal : float array option;
      (* the output every clean trajectory shares; [None] when no
         trajectory is clean (explicit T1 relaxes in all of them) *)
}

(* Pauli frame over the tableau-borne span [0, span): an error Pauli
   injected after gate [i] is not replayed but looked up. Entry
   [4 * i + 2 * slot + c] is where X (c = 0) or Z (c = 1) on operand
   [slot] of gate [i] lands at the end of the span, packed as
   [xm lor (zm lsl frame_shift)]. Conjugation is linear over GF(2) up
   to phase, so a trajectory's frame is the xor of its errors'
   entries, Y being X xor Z. One backward pass builds the table:
   [img_x]/[img_z] hold the images of X_q and Z_q from the current
   gate to the end of the span, and stepping back across gate [i]
   re-images only its operands. [k <= 20] keeps both masks apart. *)
let frame_shift = 30

let frame_table k gates apps =
  let span = Array.length apps in
  let table = Array.make (4 * span) 0 in
  let img_x = Array.init k (fun q -> 1 lsl q) in
  let img_z = Array.init k (fun q -> 1 lsl (q + frame_shift)) in
  for i = span - 1 downto 0 do
    let qs = gates.(i).qs in
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

let frame_x f = f land ((1 lsl frame_shift) - 1)
let frame_z f = f lsr frame_shift

(* Pauli [p] (0 = X, 1 = Y, 2 = Z) on the operand whose X entry is at
   [e]. *)
let frame_term frame e p =
  (if p <> 2 then frame.(e) else 0) lxor if p <> 0 then frame.(e + 1) else 0

(* One trajectory's drawn errors, reused across a block:
   [hits.(0 .. count - 1)] are its erred gates, ascending, and [flags]
   holds a nonzero byte at exactly those gates while the trajectory
   runs (a byte, not a [bool] word, per gate). *)
type errors = { hits : int array; mutable count : int; flags : Bytes.t }

(* Draws the span's error Paulis in gate order through the one error
   draw, exactly as replaying them would, and returns the packed frame
   at the end of the span. *)
let draw_frame rng gates frame e =
  let span = Array.length frame / 4 in
  let acc = ref 0 in
  let j = ref 0 in
  while !j < e.count && e.hits.(!j) < span do
    let i = e.hits.(!j) in
    let code = Noise.draw_error rng gates.(i).cg in
    let pa = code lsr 2 and pb = code land 3 in
    if pa > 0 then acc := !acc lxor frame_term frame (4 * i) (pa - 1);
    if pb > 0 then acc := !acc lxor frame_term frame ((4 * i) + 2) (pb - 1);
    incr j
  done;
  !acc

let inject_sv state rng pg = Noise.apply_error state (Noise.draw_error rng pg.cg) pg.qs

(* Gate-by-gate statevector execution of [members], injecting the
   flagged errors and, under explicit T1, relaxing after every gate. *)
let run_gates gates (members : Fusion.member array) state rng flags =
  for j = 0 to Array.length members - 1 do
    let m = members.(j) in
    let pg = gates.(m.idx) in
    Statevector.apply state m.kernel;
    if Bytes.get flags m.idx <> '\000' then inject_sv state rng pg;
    if pg.gamma > 0.0 then
      for j = 0 to Array.length pg.qs - 1 do
        ignore (Statevector.relax state pg.qs.(j) ~gamma:pg.gamma rng)
      done
  done

let clean_tableau k apps =
  let tab = Tableau.init k in
  Array.iter (Tableau.apply_app tab) apps;
  tab

(* The clean run of the dense part [prefix, n), done once from the clean
   state after the tableau-borne [apps]; it ends in the ideal state.
   Along a fused plan it keeps checkpoints within [checkpoint_floats].
   Without explicit T1 every [gamma] is 0, so the gate-by-gate clean run
   never draws from its stream. *)
let dense_plan config p ~prefix apps frame =
  let gates = p.gates in
  let start =
    if prefix > 0 then Statevector.of_tableau (clean_tableau p.k apps)
    else Statevector.init p.k
  in
  let n = Array.length gates in
  let members =
    Array.init (n - prefix) (fun j -> Fusion.member ~idx:(prefix + j) gates.(prefix + j).cg)
  in
  if config.Config.fusion && (not config.Config.explicit_t1) && prefix < n then begin
    let steps = Fusion.steps (Fusion.plan ~n:p.k members) in
    let n_steps = Array.length steps in
    let step_of = Array.make n (-1) in
    Array.iteri
      (fun s st ->
        Array.iter
          (fun (m : Fusion.member) -> step_of.(m.idx) <- s)
          (Fusion.step_members st))
      steps;
    let per = max 1 (checkpoint_floats / (2 * (1 lsl p.k))) in
    let stride = max 1 ((n_steps + per - 1) / per) in
    let checkpoints = Array.make (max 1 ((n_steps + stride - 1) / stride)) start in
    let state = Statevector.copy start in
    Array.iteri
      (fun s st ->
        if s > 0 && s mod stride = 0 then
          checkpoints.(s / stride) <- Statevector.copy state;
        Fusion.apply_step state st)
      steps;
    let body = Fused { steps; step_of; stride; checkpoints } in
    let ideal = Some (Statevector.probabilities state) in
    { path = Dense { prefix; frame; start; body }; ideal }
  end
  else begin
    let ideal =
      if config.Config.explicit_t1 then None
      else begin
        let state = Statevector.copy start in
        run_gates gates members state (Rng.create 0) (Bytes.make n '\000');
        Some (Statevector.probabilities state)
      end
    in
    { path = Dense { prefix; frame; start; body = Gates members }; ideal }
  end

(* Backend dispatch: derived Clifford actions (memoized per gate shape)
   decide how much of the circuit the polynomial-time tableau can carry.
   Explicit T1 relaxation is not a Clifford channel, so it pins the
   dense backend. Fusion plans depend only on the circuit, never on the
   pool or the error draws, so cross-pool determinism is preserved. *)
let plan config p =
  let { Config.backend; explicit_t1; fusion; _ } = config in
  let gates = p.gates in
  let n = Array.length gates in
  let clifford =
    let rec prefix i acc =
      match if i < n then gates.(i).action else None with
      | Some a -> prefix (i + 1) (a :: acc)
      | None -> Array.of_list (List.rev acc)
    in
    prefix 0 []
  in
  let n_clifford = Array.length clifford in
  (* Compiles the first [span] gates to tableau apps and their frame
     inside the [sim.plan] span, then builds the plan from them. *)
  let planned name span build =
    Obs.Span.with_span
      ~attrs:
        [
          ("backend", Obs.Span.Str name);
          ("fusion", Obs.Span.Str (if fusion && not explicit_t1 then "on" else "off"));
          ("gates", Obs.Span.Int n);
          ("clifford_prefix", Obs.Span.Int n_clifford);
        ]
      "sim.plan"
    @@ fun () ->
    let apps =
      Array.init span (fun i -> Tableau.compile_action clifford.(i) gates.(i).qs)
    in
    build apps (frame_table p.k gates apps)
  in
  let tableau () =
    planned "stabilizer" n (fun apps frame ->
        let readout = Tableau.readout (clean_tableau p.k apps) in
        {
          path = Clifford { frame; readout };
          ideal = Some (Tableau.readout_probabilities readout ~flips:0);
        })
  in
  let dense prefix =
    planned (if prefix > 0 then "hybrid" else "statevector") prefix
      (dense_plan config p ~prefix)
  in
  match backend with
  | Config.Statevector -> dense 0
  | Config.Stabilizer ->
    if n_clifford < n then
      invalid_arg "Runner.simulate: stabilizer backend requires a Clifford-only circuit";
    tableau ()
  | Config.Auto ->
    if explicit_t1 then dense 0
    else if n_clifford = n then tableau ()
    else if n_clifford >= hybrid_threshold then dense n_clifford
    else dense 0

(* Fused execution from step [from]: a step whose gates are all clean
   applies as one kernel pass; a step marked erred for trajectory [t]
   falls back to its member gates one by one, injecting the Pauli
   right after the erred gate (per-wire order is preserved by
   construction, so this is exact). *)
let run_steps gates steps state rng flags mark t from =
  for s = from to Array.length steps - 1 do
    let st = steps.(s) in
    if mark.(s) = t then begin
      let ms = Fusion.step_members st in
      for j = 0 to Array.length ms - 1 do
        let m = ms.(j) in
        Fusion.apply_member state m;
        if Bytes.get flags m.idx <> '\000' then inject_sv state rng gates.(m.idx)
      done
    end
    else Fusion.apply_step state st
  done

(* When the tableau-borne prefix of an erred dense trajectory erred,
   [scratch] becomes the clean prefix state under the prefix's Pauli
   frame and the result is [true]; otherwise [scratch] is untouched. *)
let seed_prefix gates frame start scratch rng e =
  let erred = e.count > 0 && e.hits.(0) < Array.length frame / 4 in
  if erred then begin
    let f = draw_frame rng gates frame e in
    Statevector.blit ~src:start ~dst:scratch;
    Statevector.apply_pauli scratch ~x:(frame_x f) ~z:(frame_z f)
  end;
  erred

(* The one dispatch on the plan: one block's runner of erred
   trajectories, adding trajectory [t]'s output distribution into
   [partial]. A dense runner reuses one scratch state (and one step
   mark array) across its block. *)
let erred_runner p plan =
  let gates = p.gates in
  match plan.path with
  | Clifford { frame; readout } ->
    fun partial rng e _t ->
      let xm = frame_x (draw_frame rng gates frame e) in
      let flips = Tableau.flip_mask readout ~xm in
      Tableau.add_readout_probabilities readout ~flips partial
  | Dense { prefix; frame; start; body } -> (
    let scratch = Statevector.copy start in
    match body with
    | Gates members ->
      fun partial rng e _t ->
        if not (seed_prefix gates frame start scratch rng e) then
          Statevector.blit ~src:start ~dst:scratch;
        run_gates gates members scratch rng e.flags;
        Statevector.add_probabilities scratch partial
    | Fused { steps; step_of; stride; checkpoints } ->
      let mark = Array.make (Array.length steps) (-1) in
      fun partial rng e t ->
        let seeded = seed_prefix gates frame start scratch rng e in
        (* Marks the erred steps that replay member by member; a
           clean-prefix trajectory resumes from the last checkpoint
           before the first of them. *)
        let first = ref (Array.length steps) in
        for j = 0 to e.count - 1 do
          let i = e.hits.(j) in
          if i >= prefix then begin
            let s = step_of.(i) in
            mark.(s) <- t;
            if s < !first then first := s
          end
        done;
        let from =
          if seeded then 0
          else begin
            let c = !first / stride in
            Statevector.blit ~src:checkpoints.(c) ~dst:scratch;
            c * stride
          end
        in
        run_steps gates steps scratch rng e.flags mark t from;
        Statevector.add_probabilities scratch partial)

(* Returns the trajectory-averaged distribution over the [k] touched
   qubits and the stream left for shot sampling. *)
let execute config p plan =
  let { Config.seed; trajectories; pool; _ } = config in
  let pool = match pool with Some pool -> pool | None -> Parallel.Pool.default () in
  Obs.Span.with_span "sim.execute" @@ fun () ->
  (* Every trajectory draws from its own stream, split off the master in
     trajectory order; the remaining master stream serves shot sampling.
     Splitting decouples a trajectory's randomness from whichever domain
     happens to execute it. *)
  let master = Rng.create seed in
  let traj_rng = Array.make trajectories master in
  for t = 0 to trajectories - 1 do
    traj_rng.(t) <- Rng.split master
  done;
  let counts_rng = Rng.split master in
  let dim = 1 lsl p.k in
  (* Each block reuses one error buffer and one erred-trajectory runner
     across its trajectories. *)
  let run_block b =
    let partial = Array.make dim 0.0 in
    let e =
      {
        hits = Array.make (Array.length p.drawn) 0;
        count = 0;
        flags = Bytes.make (Array.length p.gates) '\000';
      }
    in
    let run_erred = erred_runner p plan in
    let erred = ref 0 in
    let last = min trajectories ((b + 1) * traj_block) - 1 in
    for t = b * traj_block to last do
      let rng = traj_rng.(t) in
      (* Sample the error pattern first: clean trajectories (the common
         case on good mappings) reuse the cached ideal output without
         re-simulating. *)
      e.count <- Rng.bernoulli_hits rng p.drawn p.drawn_thresholds e.hits;
      match plan.ideal with
      | Some ideal when e.count = 0 ->
        for i = 0 to dim - 1 do
          partial.(i) <- partial.(i) +. ideal.(i)
        done
      | Some _ | None ->
        incr erred;
        for j = 0 to e.count - 1 do
          Bytes.set e.flags e.hits.(j) '\001'
        done;
        run_erred partial rng e t;
        for j = 0 to e.count - 1 do
          Bytes.set e.flags e.hits.(j) '\000'
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
  (avg, counts_rng)

let readout p avg =
  Obs.Span.with_span "sim.readout" @@ fun () ->
  Dist.to_strings (Dist.corrupt_readout (Dist.project avg p.k p.positions) p.flips)

(* Realistic multinomial shot noise instead of deterministic
   largest-remainder rounding. *)
let sample_counts rng distribution trials =
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
    let r = Rng.float rng *. total in
    let rec find i =
      if i >= Array.length cumulative - 1 || cumulative.(i) >= r then i else find (i + 1)
    in
    let bits, _ = outcomes.(find 0) in
    Hashtbl.replace table bits (1 + Option.value ~default:0 (Hashtbl.find_opt table bits))
  done;
  Hashtbl.fold (fun bits n acc -> (bits, n) :: acc) table []
  |> List.sort (fun (_, n1) (_, n2) -> compare n2 n1)

let score config spec counts_rng distribution =
  let { Config.trials; trajectories; sample_counts = sampled; _ } = config in
  Obs.Span.with_span "sim.score" @@ fun () ->
  let counts =
    if sampled then sample_counts counts_rng distribution trials
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

let simulate ?(config = Config.default) compiled spec =
  Obs.Span.with_span
    ~attrs:
      [
        ("machine", Obs.Span.Str compiled.Compiled.machine.Machine.name);
        ("trajectories", Obs.Span.Int config.Config.trajectories);
        ("trials", Obs.Span.Int config.Config.trials);
      ]
    "sim.run"
  @@ fun () ->
  let p = prepare config compiled spec in
  let avg, counts_rng = execute config p (plan config p) in
  score config spec counts_rng (readout p avg)

let ideal_distribution (circuit : Ir.Circuit.t) ~measured =
  let state = Statevector.run circuit in
  let k = circuit.Ir.Circuit.n_qubits in
  Dist.to_strings (Dist.project (Statevector.probabilities state) k measured)
