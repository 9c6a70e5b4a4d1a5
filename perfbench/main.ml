(* The repository benchmark: one process runs one named workload as a
   closed loop with a single client, checks every response, and prints
   its metrics as one JSON line.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--setup-only]

   Workloads (perfbench/README.md says why each was chosen):
   - compile-cold: every (paper benchmark, study machine it fits, level),
     sent once as Scaffold source and once as OpenQASM text; a request is
     frontend -> Pipeline.compile_level -> Backend.Emit.executable, with
     both compiler caches cleared before it;
   - simulate: the 75 Figure 12 cells compiled at TriQ-1QOptCN during
     set-up; a request is one default Sim.Runner.simulate;
   - study: a request is one of the Figure 9-12 success-rate grids; a
     pass over the four clears both caches at its start.

   Set-up and the timed loops run at a pool of 1. A pool of nproc needs
   every core free at once, so on a shared host it times the other tenants
   more than the program: study at a pool of 2 spread 25-38% between runs
   of the same code on a shared two-core machine. The traced run measures
   the pool of nproc in a loop of its own (see below).

   The seed sets the request order and the simulation seed of each simulate
   cell; the program under test only sees the generated inputs.

   Set-up runs from process start to the first timed request and includes
   one untimed warm-up pass, whose responses become the references every
   timed response must equal. After timing, the references are checked
   against independent oracles; a request whose reference fails counts as
   failed every time it was sent.

   With --trace 0 the result carries the end-to-end metrics. Set-up is
   reported as the wall-clock instant it ended and the heap peak at that
   instant, which run.py turns into medians over several launches of
   set-up seconds (from each launch) and peak heap. With --trace 1 the process
   splits its time between three loops: the same loop untraced, the loop
   with Obs.Span and Obs.Metrics enabled, and the loop at a pool of nproc
   with Obs.Metrics enabled. It reports per-layer metrics from the spans
   the benchmark records around each layer call, the program's own spans
   and counters, the difference in throughput between the first two loops,
   and the pool's histograms and speed-up from the third. *)

module Programs = Bench_kit.Programs
module E = Bench_kit.Experiments
module Pipeline = Triq.Pipeline
module Machine = Device.Machine
module Runner = Sim.Runner
module Span = Obs.Span
module J = Obs.Json

let now_ns = Monotonic_clock.now
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)

(* ---------- small statistics ---------- *)

let geomean = function
  | [] -> Float.nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let clear_caches () =
  Triq.Reliability.cache_clear ();
  Triq.Placement.cache_clear ()

(* ---------- workloads ---------- *)

(* A workload as the closed loop drives it. [serve i] is the timed call;
   the closure it returns compares the response with request [i]'s
   reference (the first response, from the warm-up pass) and runs after
   the clock stops. [verify] checks the references against independent
   oracles and returns the requests whose reference is wrong. *)
type workload = {
  order : int array;  (** distinct request indices in seeded order *)
  work : int -> int;
      (** units of work in request [i]: 1, or the cells of a study grid
          (known once the warm-up pass has run) *)
  prepare : int -> unit;  (** untimed, before every request [i] *)
  serve : int -> unit -> bool;
  verify : unit -> int list;
  quality : unit -> float;
      (** geometric mean of the references' figure of merit: ESP for
          compile-cold, measured success rate for simulate and study *)
  layer_facts : unit -> (string * float) list;
      (** per-layer values read from the references (compile-cold only) *)
}

(* Stores the first response of each request and compares later ones with
   it. *)
let references n equal =
  let refs = Array.make n None in
  let check i r =
    match refs.(i) with
    | None ->
      refs.(i) <- Some r;
      true
    | Some r0 -> equal r0 r
  in
  (check, fun i -> refs.(i))

(* -- compile-cold -- *)

type format = Scaffold_src | Qasm_src

type compile_req = {
  prog : Programs.t;
  machine : Machine.t;
  level : Pipeline.level;
  format : format;
  text : string;
}

type compile_resp = {
  circuit : Ir.Circuit.t;
  measured : int list;
  result : Pipeline.t;
  executable : string;
}

let vendor_key (m : Machine.t) =
  match Machine.vendor m with
  | Device.Gateset.Ibm -> "openqasm"
  | Device.Gateset.Rigetti -> "quil"
  | Device.Gateset.Umd -> "ti"

let frontend format text =
  match format with
  | Scaffold_src ->
    let ast = Span.with_span "scaffold.parse" (fun () -> Scaffold.Parser.parse text) in
    let p = Span.with_span "scaffold.lower" (fun () -> Scaffold.Lower.lower ast) in
    (p.Scaffold.Lower.circuit, p.Scaffold.Lower.measured)
  | Qasm_src ->
    let p = Span.with_span "qasm.parse" (fun () -> Qasm.Frontend.parse text) in
    (p.Qasm.Frontend.circuit, p.Qasm.Frontend.measured)

let compile_request r =
  let circuit, measured = frontend r.format r.text in
  let result =
    Span.with_span "triq.compile_level" (fun () ->
        Pipeline.compile_level r.machine circuit ~level:r.level)
  in
  let compiled = Pipeline.to_compiled result in
  let executable =
    Span.with_span ("backend.emit." ^ vendor_key r.machine) (fun () ->
        Backend.Emit.executable compiled)
  in
  { circuit; measured; result; executable }

(* The frontend's program must measure the benchmark's qubits and, run
   noiselessly, give the benchmark's known answer (Programs builds its
   circuits and specs without either frontend). *)
let frontend_matches (p : Programs.t) circuit measured =
  let spec = p.Programs.spec in
  measured = spec.Ir.Spec.measured
  &&
  match
    (Runner.ideal_distribution (Ir.Circuit.body circuit) ~measured, spec.Ir.Spec.expected)
  with
  | (bits, prob) :: _, [ (expected, _) ] -> bits = expected && prob >= 0.99
  | _ -> false

(* The emitted text must parse back with the vendor's own parser into a
   circuit with the executable's 2Q gate count. *)
let parses_back (m : Machine.t) text ~two_q =
  let circuit =
    match Machine.vendor m with
    | Device.Gateset.Ibm -> (Backend.Qasm_parse.parse text).Backend.Qasm_parse.circuit
    | Device.Gateset.Rigetti -> (Backend.Quil_parse.parse text).Backend.Quil_parse.circuit
    | Device.Gateset.Umd -> (Backend.Ti_parse.parse text).Backend.Ti_parse.circuit
  in
  Ir.Circuit.two_q_count circuit = two_q

let compile_cold rng =
  let reqs =
    List.concat_map
      (fun (p : Programs.t) ->
        let scaffold = Bench_kit.Scaffold_sources.source p.Programs.name in
        let qasm = Backend.Qasm_emit.emit_program ~name:p.Programs.name p.Programs.circuit in
        List.concat_map
          (fun machine ->
            if not (Machine.fits machine p.Programs.circuit) then []
            else
              List.concat_map
                (fun level ->
                  [
                    { prog = p; machine; level; format = Scaffold_src; text = scaffold };
                    { prog = p; machine; level; format = Qasm_src; text = qasm };
                  ])
                Pipeline.all_levels)
          Device.Machines.all)
      Programs.all
    |> Array.of_list
  in
  let n = Array.length reqs in
  let order = Array.init n Fun.id in
  shuffle rng order;
  let check, reference =
    references n (fun a b -> String.equal a.executable b.executable)
  in
  let refs () = List.filter_map reference (List.init n Fun.id) in
  let verify () =
    List.filter
      (fun i ->
        let r = reqs.(i) in
        match reference i with
        | None -> true
        | Some resp -> (
          try
            let compiled = Pipeline.to_compiled resp.result in
            not
              (frontend_matches r.prog resp.circuit resp.measured
              && (Sim.Verify.check ~program:resp.circuit ~measured:resp.measured compiled)
                   .Sim.Verify.equivalent
              && parses_back r.machine resp.executable
                   ~two_q:resp.result.Pipeline.two_q_count)
          with _ -> true))
      (List.init n Fun.id)
  in
  let quality () = geomean (List.map (fun r -> r.result.Pipeline.esp) (refs ())) in
  let layer_facts () =
    let rs = refs () in
    let reports = List.filter_map (fun r -> r.result.Pipeline.layout) rs in
    let per_req x = float_of_int x /. float_of_int (max 1 (List.length rs)) in
    [
      ( "layout.search_nodes",
        per_req
          (List.fold_left
             (fun acc rep -> acc + rep.Layout.Report.work.Layout.Report.search_nodes)
             0 reports) );
      ( "layout.optimal_ratio",
        float_of_int
          (List.length (List.filter (fun rep -> rep.Layout.Report.proven_optimal) reports))
        /. float_of_int (max 1 (List.length reports)) );
      ( "backend.bytes",
        per_req (List.fold_left (fun acc r -> acc + String.length r.executable) 0 rs) );
      ( "triq.two_q_gates",
        per_req (List.fold_left (fun acc r -> acc + r.result.Pipeline.two_q_count) 0 rs) );
    ]
  in
  {
    order;
    work = (fun _ -> 1);
    prepare = (fun _ -> clear_caches ());
    serve =
      (fun i ->
        let resp = compile_request reqs.(i) in
        fun () -> check i resp);
    verify;
    quality;
    layer_facts;
  }

(* -- simulate -- *)

(* Input classes for the per-class breakdown, from the executable alone:
   all-Clifford, a Clifford prefix of at least [prefix_min] gates (the
   length from which the runner's Auto backend starts the circuit on the
   tableau), or neither. *)
let prefix_min = 4

let sim_class (c : Triq.Compiled.t) =
  let body =
    List.filter (fun g -> not (Ir.Gate.is_measure g)) c.Triq.Compiled.hardware.Ir.Circuit.gates
  in
  let rec prefix k = function
    | g :: rest when Dataflow.Tableau.is_clifford_gate g -> prefix (k + 1) rest
    | _ -> k
  in
  let k = prefix 0 body in
  if k = List.length body then "clifford"
  else if k >= prefix_min then "clifford_prefix"
  else "non_clifford"

(* Cells touching at most this many qubits are checked against the exact
   density-matrix result; [sim_tolerance] bounds the gap a 300-trajectory
   estimate may show against it (over seeds 1-40 the worst gap of any cell
   was 0.083). *)
let density_max_qubits = 8
let sim_tolerance = 0.15

type sim_cell = {
  cprog : Programs.t;
  compiled : Triq.Compiled.t;
  cls : string;
  config : Runner.Config.t;
}

let simulate rng =
  let cells =
    List.concat_map
      (fun machine ->
        List.filter_map
          (fun (p : Programs.t) ->
            if not (Machine.fits machine p.Programs.circuit) then None
            else
              let compiled =
                Pipeline.to_compiled
                  (Pipeline.compile_level machine p.Programs.circuit
                     ~level:Pipeline.OneQOptCN)
              in
              Some (p, compiled))
          Programs.all)
      Device.Machines.all
    |> List.map (fun (p, compiled) ->
           {
             cprog = p;
             compiled;
             cls = sim_class compiled;
             config = Runner.Config.make ~seed:(Random.State.bits rng) ();
           })
    |> Array.of_list
  in
  let n = Array.length cells in
  let order = Array.init n Fun.id in
  shuffle rng order;
  let check, reference =
    references n (fun (a : Runner.outcome) b ->
        a.Runner.success_rate = b.Runner.success_rate
        && a.Runner.distribution = b.Runner.distribution)
  in
  let verify () =
    List.filter
      (fun i ->
        let c = cells.(i) in
        match reference i with
        | None -> true
        | Some outcome -> (
          let hardware = c.compiled.Triq.Compiled.hardware in
          List.length (Ir.Circuit.used_qubits hardware) <= density_max_qubits
          &&
          try
            let exact = Sim.Density_runner.run c.compiled c.cprog.Programs.spec in
            Float.abs (exact.Sim.Density_runner.success_rate -. outcome.Runner.success_rate)
            > sim_tolerance
          with _ -> true))
      (List.init n Fun.id)
  in
  let quality () =
    geomean
      (List.filter_map
         (fun i -> Option.map (fun o -> o.Runner.success_rate) (reference i))
         (List.init n Fun.id))
  in
  {
    order;
    work = (fun _ -> 1);
    prepare = ignore;
    serve =
      (fun i ->
        let c = cells.(i) in
        let outcome =
          Span.with_span ("sim.simulate." ^ c.cls) (fun () ->
              Runner.simulate ~config:c.config c.compiled c.cprog.Programs.spec)
        in
        fun () -> check i outcome);
    verify;
    quality;
    layer_facts = (fun () -> []);
  }

(* -- study -- *)

let grids : (string * (unit -> (string * float E.row list) list)) list =
  [
    ("fig9", fun () -> E.fig9_data ());
    ("fig10", fun () -> [ ("IBMQ14", E.fig10_success ()) ]);
    ("fig11", fun () -> E.fig11_sequences ());
    ("fig12", fun () -> [ ("all", E.fig12_data ()) ]);
  ]

let successes series =
  List.concat_map
    (fun (_, rows) ->
      List.concat_map (fun (r : float E.row) -> List.filter_map snd r.E.values) rows)
    series

(* A study request is one grid; the loop's pass over the four grids is the
   unit a user waits for, so the caches are cleared only before its first
   grid and warm up within the pass. The grids run in figure order, as
   bench/main.exe runs them: the order decides how much cached work later
   grids reuse, so the seed does not change it. The references come from
   the warm-up pass at a pool of 1; [verify] recomputes every grid once at
   a pool of [nproc], which must give the same grids bit for bit. *)
let study ~nproc =
  let table = Array.of_list grids in
  let n = Array.length table in
  let order = Array.init n Fun.id in
  let run i =
    let name, grid = table.(i) in
    Span.with_span ("bench_kit." ^ name) grid
  in
  let check, reference = references n ( = ) in
  let verify () =
    Parallel.Pool.set_default_jobs nproc;
    clear_caches ();
    let bad =
      List.filter
        (fun i -> match reference i with None -> true | Some r -> run i <> r)
        (List.init n Fun.id)
    in
    Parallel.Pool.set_default_jobs 1;
    bad
  in
  let cells i = match reference i with None -> [] | Some r -> successes r in
  {
    order;
    work = (fun i -> List.length (cells i));
    prepare = (fun i -> if i = order.(0) then clear_caches ());
    serve =
      (fun i ->
        let series = run i in
        fun () -> check i series);
    verify;
    quality = (fun () -> geomean (List.concat_map cells (Array.to_list order)));
    layer_facts = (fun () -> []);
  }

(* ---------- the closed loop ---------- *)

type loop = {
  times_ns : float array;  (** every timed call, in send order *)
  ok : bool array;  (** whether that response passed its checks *)
  sent : int array;  (** which request it was *)
}

external cpu_count : unit -> int = "perfbench_cpu_count"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

(* One client sends request after request, in whole passes over [order],
   until [seconds] have elapsed. [after] runs untimed after each request.
   With [~rotate], pass k runs pinned to the process's k-th CPU (modulo
   their number), for a loop at a pool of 1: the CPUs of a shared host
   slow down independently, for seconds at a time (two copies of study,
   each pinned to one of two vCPUs, saw one run up to 1.6 times slower
   than the other, and then the other way round), and a request's latency
   is its fastest repetition, so its repetitions are spread over every
   CPU. *)
let closed_loop w ~rotate ~seconds ~after =
  let times = ref [] and oks = ref [] and sent = ref [] in
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let pass = ref 0 in
  while now_ns () < deadline do
    if rotate then ignore (pin_cpu !pass);
    incr pass;
    Array.iter
      (fun i ->
        w.prepare i;
        let t0 = now_ns () in
        let check = try Some (Span.with_span "request" (fun () -> w.serve i)) with _ -> None in
        let dt = ns_between t0 (now_ns ()) in
        let ok = match check with Some check -> (try check () with _ -> false) | None -> false in
        times := dt :: !times;
        oks := ok :: !oks;
        sent := i :: !sent;
        after ())
      w.order
  done;
  if rotate then ignore (pin_cpu (-1));
  let arr l = Array.of_list (List.rev l) in
  { times_ns = arr !times; ok = arr !oks; sent = arr !sent }

(* Requests whose reference failed verification fail every time sent. *)
let apply_verdict loop bad =
  Array.iteri (fun k i -> if List.mem i bad then loop.ok.(k) <- false) loop.sent

let failures loop = Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 loop.ok

(* Every request is sent once per pass, so many times in a run, and its
   latency is the fastest of its repetitions: the other tenants of a
   shared machine only ever add time, and they come and go over seconds
   to minutes. (On a shared two-core machine, the median over windows of
   one pass spread 20% between runs; the per-request minimum 1-5%.) A
   request that failed once has an infinite latency: it misses every
   limit. The median and the tail are taken over the distinct requests;
   the tail is the highest percentile with at least ten of them beyond
   it, or the slowest when there are at most ten. *)
type timing = {
  throughput : float;  (** work per second, at those latencies *)
  p50_ns : float;
  tail_ns : float;
  tail_pct : float;
  requests : int;  (** distinct requests: the samples of p50 and tail *)
  passes : int;
}

let timing w loop =
  let n = Array.length w.order in
  let best = Hashtbl.create n and work = ref 0 in
  Array.iteri
    (fun k i ->
      let t = if loop.ok.(k) then loop.times_ns.(k) else infinity in
      Hashtbl.replace best i
        (match Hashtbl.find_opt best i with
        | Some prev when Float.is_finite prev && Float.is_finite t -> Float.min prev t
        | Some _ -> infinity
        | None ->
          work := !work + w.work i;
          t))
    loop.sent;
  let lat = Array.of_seq (Hashtbl.to_seq_values best) in
  Array.sort compare lat;
  let requests = Array.length lat in
  let tail_index = if requests > 10 then requests - 11 else requests - 1 in
  {
    throughput =
      float_of_int !work /. (Array.fold_left ( +. ) 0.0 lat *. 1e-9);
    p50_ns = median (Array.to_list lat);
    tail_ns = lat.(tail_index);
    tail_pct = 100.0 *. float_of_int (tail_index + 1) /. float_of_int requests;
    requests;
    passes = Array.length loop.times_ns / n;
  }

(* ---------- per-layer aggregation (traced loop) ---------- *)

(* Which library a span belongs to: the benchmark's own spans are named
   after the library they wrap; the program's spans are compile/pass.*
   (triq), layout.*, sim.* and dataflow.*. *)
let library name =
  match String.index_opt name '.' with
  | None -> if name = "compile" then "triq" else name
  | Some k -> (
    match String.sub name 0 k with "pass" -> "triq" | prefix -> prefix)

type trace_acc = {
  by_name : (string, float * int) Hashtbl.t;  (** total ns, calls *)
  self_ns : (string, float) Hashtbl.t;  (** by library; "request" = no layer *)
}

let add_spans acc spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      Option.iter
        (fun p ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (prev +. Int64.to_float s.Span.dur_ns))
        s.Span.parent)
    spans;
  List.iter
    (fun (s : Span.t) ->
      let dur = Int64.to_float s.Span.dur_ns in
      let total, calls =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.by_name s.Span.name)
      in
      Hashtbl.replace acc.by_name s.Span.name (total +. dur, calls + 1);
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt children s.Span.id) in
      let lib = library s.Span.name in
      Hashtbl.replace acc.self_ns lib
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc.self_ns lib)))
    spans

let pass_names =
  [ "flatten"; "reliability"; "mapping"; "routing"; "swap-expansion"; "orientation";
    "translation"; "oneq"; "readout" ]

let self_libraries = [ "scaffold"; "qasm"; "triq"; "layout"; "backend"; "sim"; "bench_kit" ]

let counter dump name =
  match List.assoc_opt name dump with Some (Obs.Metrics.Counter n) -> n | _ -> 0

(* Upper bound of the power-of-two bucket holding quantile [q]. *)
let histogram_quantile dump name q =
  match List.assoc_opt name dump with
  | Some (Obs.Metrics.Histogram { count; buckets; _ }) when count > 0 ->
    let target = q *. float_of_int count in
    let rec go cum = function
      | [] -> 0.0
      | (upper, c) :: rest ->
        let cum = cum + c in
        if float_of_int cum >= target then upper else go cum rest
    in
    go 0 buckets
  | _ -> 0.0

let histogram_sum dump name =
  match List.assoc_opt name dump with
  | Some (Obs.Metrics.Histogram { sum; _ }) -> sum
  | _ -> 0.0

(* What a traced run measured: the traced loop with its spans, counters
   and GC counts, and the loop at a pool of [pool_jobs] with its counters. *)
type traced = {
  acc : trace_acc;
  loop : loop;
  dump : (string * Obs.Metrics.value) list;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  pool_jobs : int;
  pool_loop : loop;
  pool_dump : (string * Obs.Metrics.value) list;
}

let layer_metrics w t ~untraced_rps ~traced_rps ~pool_rps =
  let { acc; loop; dump; gc0; gc1; pool_jobs; pool_loop; pool_dump } = t in
  let requests = float_of_int (Array.length loop.times_ns) in
  let total name = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.by_name name)) in
  let per_call name =
    match Hashtbl.find_opt acc.by_name name with
    | Some (t, c) when c > 0 -> t /. float_of_int c
    | _ -> 0.0
  in
  let count name = float_of_int (counter dump name) in
  let ratio hits misses = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  let us v = (v /. 1e3, "us") and ms v = (v /. 1e6, "ms") in
  let per_req v unit = (v /. requests, unit) in
  let passes_ns = List.fold_left (fun acc p -> acc +. total ("pass." ^ p)) 0.0 pass_names in
  let compiles = snd (Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.by_name "compile")) in
  let rel_h = count "triq.reliability.cache.hits" and rel_m = count "triq.reliability.cache.misses" in
  let lay_h = count "layout.cache.hits" and lay_m = count "layout.cache.misses" in
  let trajectories = count "sim.trajectories" in
  let busy = histogram_sum pool_dump "parallel.pool.busy_ns" in
  let pool_requests = float_of_int (Array.length pool_loop.times_ns) in
  let facts = w.layer_facts () in
  let fact name = Option.value ~default:0.0 (List.assoc_opt name facts) in
  [
    ("scaffold.parse_us", us (per_call "scaffold.parse"));
    ("scaffold.lower_us", us (per_call "scaffold.lower"));
    ("qasm.parse_us", us (per_call "qasm.parse"));
    ("triq.compile_us", us (per_call "compile"));
  ]
  @ List.map (fun p -> ("triq.pass." ^ p ^ "_us", us (per_call ("pass." ^ p)))) pass_names
  @ [
      ( "triq.unattributed_us",
        us (if compiles > 0 then (total "compile" -. passes_ns) /. float_of_int compiles else 0.0) );
      ("layout.search_nodes", (fact "layout.search_nodes", "count/req"));
      ("layout.optimal_ratio", (fact "layout.optimal_ratio", "ratio"));
      ("backend.emit_us.openqasm", us (per_call "backend.emit.openqasm"));
      ("backend.emit_us.quil", us (per_call "backend.emit.quil"));
      ("backend.emit_us.ti", us (per_call "backend.emit.ti"));
      ("backend.bytes", (fact "backend.bytes", "bytes/req"));
      ("triq.two_q_gates", (fact "triq.two_q_gates", "count/req"));
      ("sim.simulate_ms.clifford", ms (per_call "sim.simulate.clifford"));
      ("sim.simulate_ms.clifford_prefix", ms (per_call "sim.simulate.clifford_prefix"));
      ("sim.simulate_ms.non_clifford", ms (per_call "sim.simulate.non_clifford"));
      ( "sim.us_per_trajectory",
        us (if trajectories > 0.0 then total "sim.run" /. trajectories else 0.0) );
      ("sim.trajectories", per_req trajectories "count/req");
      ("sim.blocks", per_req (count "sim.blocks") "count/req");
      ("triq.reliability.cache.hit_ratio", (ratio rel_h rel_m, "ratio"));
      ("triq.reliability.cache.hits", per_req rel_h "count/req");
      ("triq.reliability.cache.misses", per_req rel_m "count/req");
      ("layout.cache.hit_ratio", (ratio lay_h lay_m, "ratio"));
      ("layout.cache.hits", per_req lay_h "count/req");
      ("layout.cache.misses", per_req lay_m "count/req");
      ( "parallel.pool.tasks",
        (float_of_int (counter pool_dump "parallel.pool.tasks") /. pool_requests, "count/req") );
      ( "parallel.pool.queue_wait_ns.p50",
        (histogram_quantile pool_dump "parallel.pool.queue_wait_ns" 0.5, "ns") );
      ( "parallel.pool.queue_wait_ns.p99",
        (histogram_quantile pool_dump "parallel.pool.queue_wait_ns" 0.99, "ns") );
      ( "parallel.pool.busy_ns.p50",
        (histogram_quantile pool_dump "parallel.pool.busy_ns" 0.5, "ns") );
      ( "parallel.pool.utilization",
        (busy /. (Array.fold_left ( +. ) 0.0 pool_loop.times_ns *. float_of_int pool_jobs), "ratio") );
      ("parallel.rps", (pool_rps, "1/s"));
      ("parallel.speedup", (pool_rps /. untraced_rps, "ratio"));
      ( "gc.minor_collections",
        per_req (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) "count/req" );
      ( "gc.major_collections",
        per_req (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count/req" );
      ("gc.minor_words_per_request", per_req (gc1.Gc.minor_words -. gc0.Gc.minor_words) "words");
    ]
  @ List.map (fun g -> ("bench_kit." ^ g ^ "_ms", ms (per_call ("bench_kit." ^ g)))) (List.map fst grids)
  @ List.map
      (fun lib ->
        ( "layer." ^ lib ^ ".self_us",
          per_req (Option.value ~default:0.0 (Hashtbl.find_opt acc.self_ns lib) /. 1e3) "us" ))
      self_libraries
  @ [
      ( "request.unattributed_us",
        per_req (Option.value ~default:0.0 (Hashtbl.find_opt acc.self_ns "request") /. 1e3) "us" );
      ("trace.untraced_rps", (untraced_rps, "1/s"));
      ("trace.traced_rps", (traced_rps, "1/s"));
      ("trace.overhead_rps", (traced_rps -. untraced_rps, "1/s"));
    ]

(* ---------- command line and output ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload compile-cold|simulate|study --seed N --seconds S \
     --trace 0|1 [--setup-only]";
  exit 2

let parse_args () =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some s -> go { a with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> go { a with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | [] -> a
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 0; seconds = 10.0; trace = false; setup_only = false }
    (List.tl (Array.to_list Sys.argv))

let metric (name, (value, unit)) = (name, J.Obj [ ("value", J.Float value); ("unit", J.Str unit) ])

let env ~nproc =
  J.Obj
    [
      ("nproc", J.Int nproc);
      ("pool_jobs", J.Int 1);
      ("traced_pool_jobs", J.Int nproc);
      ("loop_cpus", J.Int (cpu_count ()));
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("ocamlrunparam", J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ]

let print_json fields = print_endline (J.to_string (J.Obj fields))

let () =
  let args = parse_args () in
  let rng = Random.State.make [| args.seed |] in
  let nproc = max 1 (Domain.recommended_domain_count ()) in
  Parallel.Pool.set_default_jobs 1;
  let w =
    match args.workload with
    | "compile-cold" -> compile_cold rng
    | "simulate" -> simulate rng
    | "study" -> study ~nproc
    | _ -> usage ()
  in
  (* Warm-up pass: fills the references and every lazy structure. *)
  Array.iter
    (fun i ->
      w.prepare i;
      try ignore (w.serve i ()) with _ -> ())
    w.order;
  let setup_end = Unix.gettimeofday () in
  (* The peak major heap through set-up, which sends every request once. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let setup = [ ("setup_end_unix", J.Float setup_end); ("peak_heap_mb", J.Float peak_heap_mb) ] in
  if args.setup_only then print_json setup
  else begin
    (* A traced run splits its time between the untraced loop, the traced
       loop and the loop at a pool of nproc. *)
    let seconds = if args.trace then args.seconds /. 3.0 else args.seconds in
    let untraced = closed_loop w ~rotate:true ~seconds ~after:ignore in
    let traced =
      if not args.trace then None
      else begin
        let acc = { by_name = Hashtbl.create 64; self_ns = Hashtbl.create 16 } in
        Obs.Metrics.reset ();
        Obs.Metrics.enable ();
        Span.reset ();
        Span.enable ();
        let gc0 = Gc.quick_stat () in
        let loop =
          closed_loop w ~rotate:true ~seconds ~after:(fun () ->
              add_spans acc (Span.collected ());
              Span.reset ())
        in
        let gc1 = Gc.quick_stat () in
        Span.disable ();
        let dump = Obs.Metrics.dump () in
        Obs.Metrics.reset ();
        Parallel.Pool.set_default_jobs nproc;
        let pool_loop = closed_loop w ~rotate:false ~seconds ~after:ignore in
        Parallel.Pool.set_default_jobs 1;
        let pool_dump = Obs.Metrics.dump () in
        Obs.Metrics.disable ();
        Some { acc; loop; dump; gc0; gc1; pool_jobs = nproc; pool_loop; pool_dump }
      end
    in
    let bad = w.verify () in
    let loops =
      untraced :: Option.fold ~none:[] ~some:(fun t -> [ t.loop; t.pool_loop ]) traced
    in
    List.iter (fun l -> apply_verdict l bad) loops;
    let attempted = List.fold_left (fun acc l -> acc + Array.length l.times_ns) 0 loops in
    let failed = List.fold_left (fun acc l -> acc + failures l) 0 loops in
    let t = timing w untraced in
    let metrics =
      match traced with
      | None ->
        [
          ("throughput_rps", (t.throughput, "1/s"));
          ("latency_p50_ms", (t.p50_ns /. 1e6, "ms"));
          ("latency_tail_ms", (t.tail_ns /. 1e6, "ms"));
          ("quality_geomean", (w.quality (), "ratio"));
        ]
      | Some tr ->
        layer_metrics w tr ~untraced_rps:t.throughput
          ~traced_rps:(timing w tr.loop).throughput
          ~pool_rps:(timing w tr.pool_loop).throughput
    in
    print_json
      (setup
      @ [
        ("workload", J.Str args.workload);
        ("seed", J.Int args.seed);
        ("env", env ~nproc);
        ("passes", J.Int t.passes);
        ("latency_tail_percentile", J.Float t.tail_pct);
        ("latency_tail_samples", J.Int t.requests);
        ("correct", J.Bool (failed = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", J.Obj (List.map metric metrics));
      ])
  end
