(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printed as text tables) and times the toolflow's stages
   with Bechamel.

   Usage:
     main.exe [-j N]         run every experiment, then the timing suite
     main.exe [-j N] quick   same with fewer noise trajectories (CI-friendly)
     main.exe [-j N] <id>    one experiment: fig1 fig2 fig3 tab1 fig5 fig6
                             fig7 fig8 fig9 fig10 fig11 fig12 scaling related
     main.exe [-j N] timings only the timing suite; also writes
                             BENCH_timings.json (per-stage ns/run, per-pass
                             compile breakdown, sequential vs parallel,
                             cache effect, plus reliability-cache counters
                             and domain-pool histograms from Obs.Metrics)
     main.exe smoke          fast determinism + cache smoke test, plus an
                             enriched-timings-schema gate (runtest)
     main.exe guard BASE NEW compare two BENCH_timings.json files; exit 1
                             if NEW's per_pass.mapping.ns_per_compile
                             exceeds 2x BASE's (the CI regression guard)

   -j N sizes the domain pool (default: Domain.recommended_domain_count);
   results are bit-for-bit identical for every N. *)

module E = Bench_kit.Experiments

let experiments : (string * (?trajectories:int -> unit -> unit)) list =
  [
    ("fig1", fun ?trajectories () -> ignore trajectories; E.print_fig1 ());
    ("fig2", fun ?trajectories () -> ignore trajectories; E.print_fig2 ());
    ("fig3", fun ?trajectories () -> ignore trajectories; E.print_fig3 ());
    ("tab1", fun ?trajectories () -> ignore trajectories; E.print_tab1 ());
    ("fig5", fun ?trajectories () -> ignore trajectories; E.print_fig5 ());
    ("fig6", fun ?trajectories () -> ignore trajectories; E.print_fig6 ());
    ("fig7", fun ?trajectories () -> ignore trajectories; E.print_fig7 ());
    ("fig8", fun ?trajectories () -> ignore trajectories; E.print_fig8 ());
    ("fig9", fun ?trajectories () -> E.print_fig9 ?trajectories ());
    ("fig10", fun ?trajectories () -> E.print_fig10 ?trajectories ());
    ("fig11", fun ?trajectories () -> E.print_fig11 ?trajectories ());
    ("fig12", fun ?trajectories () -> E.print_fig12 ?trajectories ());
    ("scaling", fun ?trajectories () -> ignore trajectories; E.print_scaling ());
    ("related", fun ?trajectories () -> ignore trajectories; E.print_related ());
    ("ablation", fun ?trajectories () -> ignore trajectories;
                 E.print_ablation_mapper (); E.print_ablation_peephole ());
    ("iontrap", fun ?trajectories () -> E.print_iontrap ?trajectories ());
    ("tannu", fun ?trajectories () -> E.print_tannu ?trajectories ());
    ("coherence", fun ?trajectories () -> ignore trajectories; E.print_coherence ());
    ("characterize", fun ?trajectories () -> ignore trajectories; E.print_characterize ());
    ("routing", fun ?trajectories () -> E.print_ablation_routing ?trajectories ());
    ("staleness", fun ?trajectories () -> E.print_staleness ?trajectories ());
    ("esp", fun ?trajectories () -> E.print_esp_correlation ?trajectories ());
    ("lookahead", fun ?trajectories () -> E.print_ablation_lookahead ?trajectories ());
    ("heavyhex", fun ?trajectories () -> E.print_heavyhex ?trajectories ());
    ("properties", fun ?trajectories () -> ignore trajectories;
                   E.print_properties Device.Machines.ibmq14;
                   E.print_properties Device.Machines.umdti);
    ("summary", fun ?trajectories () -> E.print_summary ?trajectories ());
    ("report", fun ?trajectories () ->
       print_string (Bench_kit.Report.generate ?trajectories ()));
    ("variability", fun ?trajectories () -> E.print_variability ?trajectories ());
    ("parametric", fun ?trajectories () -> E.print_parametric ?trajectories ());
    ("noisemodel", fun ?trajectories () -> E.print_noise_model ?trajectories ());
    ("ghz", fun ?trajectories () -> E.print_ghz ?trajectories ());
  ]

(* ---------- Bechamel timing suite: one Test.make per experiment ---------- *)

let timing_tests =
  let open Bechamel in
  let quick_traj = 20 in
  let staged name f = Test.make ~name (Staged.stage f) in
  [
    staged "fig1:device-table" (fun () -> ignore (E.fig1_rows ()));
    staged "fig2:gate-sets" (fun () -> ignore (E.fig2_rows ()));
    staged "fig3:calibration-series" (fun () -> ignore (E.fig3_series ()));
    staged "tab1:compiler-table" (fun () -> ignore (E.tab1_rows ()));
    staged "fig5:bv4-ir" (fun () -> ignore (Bench_kit.Programs.bv 4));
    staged "fig6:reliability-matrix" (fun () ->
        ignore
          (Triq.Reliability.of_calibration ~noise_aware:true
             Device.Machines.example_8q.Device.Machine.topology
             Device.Machines.example_8q_calibration));
    staged "fig7:benchmark-table" (fun () -> ignore (E.fig7_rows ()));
    staged "fig8:pulse-counts" (fun () -> ignore (E.fig8_data ()));
    staged "fig9:1q-opt-success" (fun () ->
        ignore (E.fig9_data ~trajectories:quick_traj ()));
    staged "fig10:comm-opt" (fun () ->
        ignore (E.fig10_counts ());
        ignore (E.fig10_success ~trajectories:quick_traj ()));
    staged "fig11:noise-adaptivity" (fun () ->
        ignore (E.fig11_counts ());
        ignore (E.fig11_sequences ~trajectories:quick_traj ()));
    staged "fig12:cross-platform" (fun () ->
        ignore (E.fig12_data ~trajectories:quick_traj ()));
    staged "scaling:supremacy-72q" (fun () ->
        ignore (E.scaling_data ~node_budget:5_000 ~depth:8 ()));
    staged "related:zulehner" (fun () -> ignore (E.related_data ()));
    staged "ablation:mapper-objective" (fun () ->
        ignore (E.ablation_mapper_data ~node_budget:50_000 ()));
    staged "ablation:peephole" (fun () -> ignore (E.ablation_peephole_data ()));
    staged "ext:iontrap" (fun () -> ignore (E.iontrap_data ~trajectories:quick_traj ()));
    staged "ext:tannu-six-days" (fun () ->
        ignore (E.tannu_data ~trajectories:quick_traj ()));
    staged "ext:coherence" (fun () -> ignore (E.coherence_data ()));
    staged "ext:characterize" (fun () -> ignore (E.characterize_data ()));
    staged "ablation:routing" (fun () ->
        ignore (E.ablation_routing_data ~trajectories:quick_traj ()));
    staged "ext:staleness" (fun () ->
        ignore (E.staleness_data ~trajectories:quick_traj ~days:3 ()));
    staged "ext:esp-correlation" (fun () ->
        ignore (E.esp_correlation_data ~trajectories:quick_traj ()));
    staged "ablation:lookahead-routing" (fun () ->
        ignore (E.ablation_lookahead_data ~trajectories:quick_traj ()));
  ]
  (* Dataflow static-analysis stages: the four-domain analyzer on its own,
     then the deep translation-validation overhead at each level
     (bv6@IBMQ14, same workload as the per-pass breakdown). *)
  @ (let open Bechamel in
     let staged name f = Test.make ~name (Staged.stage f) in
     let bv6 = (Bench_kit.Programs.bv 6).Bench_kit.Programs.circuit in
     let deep = Triq.Pass.Config.make ~validate:Triq.Pass.Config.Deep () in
     staged "dataflow:analyze" (fun () -> ignore (Dataflow.Analyze.summarize bv6))
     :: List.map
          (fun level ->
            staged
              (Printf.sprintf "dataflow:validate-%s"
                 (Triq.Pipeline.level_name level))
              (fun () ->
                ignore
                  (Triq.Pipeline.compile_level ~config:deep
                     Device.Machines.ibmq14 bv6 ~level)))
          Triq.Pipeline.all_levels)
  (* Layout-engine stages: each strategy solving the same bv6@IBMQ14
     mapping problem the per-pass breakdown times (cache bypassed — these
     measure the engines themselves). *)
  @ (let open Bechamel in
     let staged name f = Test.make ~name (Staged.stage f) in
     let layout_pr =
       lazy
         (let machine = Device.Machines.ibmq14 in
          let reliability =
            Triq.Reliability.compute_cached ~noise_aware:true machine ~day:0
          in
          Triq.Placement.problem reliability
            (Ir.Decompose.flatten
               (Bench_kit.Programs.bv 6).Bench_kit.Programs.circuit))
     in
     [
       staged "layout:bb" (fun () -> ignore (Layout.Bb.solve (Lazy.force layout_pr)));
       staged "layout:smt" (fun () ->
           ignore (Layout.Smt_search.solve (Lazy.force layout_pr)));
     ])

(* ---------- simulation-backend stages ---------- *)

(* fig12-style simulation workload: every benchmark that fits, on every
   Table 2 machine, compiled once at TriQ-1QOptCN. The compiled cells
   are shared by the Bechamel stages and the wall-clock sections below
   so all backend comparisons run the exact same circuits. *)
let sim_cells =
  lazy
    (List.concat_map
       (fun m ->
         List.filter_map
           (fun (p : Bench_kit.Programs.t) ->
             if Device.Machine.fits m p.Bench_kit.Programs.circuit then
               Some
                 ( Triq.Pipeline.to_compiled
                     (Triq.Pipeline.compile_level m
                        p.Bench_kit.Programs.circuit
                        ~level:Triq.Pipeline.OneQOptCN),
                   p.Bench_kit.Programs.spec )
             else None)
           Bench_kit.Programs.all)
       Device.Machines.all)

let sim_sweep ~config () =
  List.iter
    (fun (c, s) -> ignore (Sim.Runner.simulate ~config c s))
    (Lazy.force sim_cells)

(* bv8@IBMQ16 is Clifford end to end (H layers + CNOTs survive 1Q-opt as
   Clifford-angle rotations), so Auto dispatches it to the stabilizer
   tableau — the head-to-head polynomial-vs-dense stage. *)
let sim_bv8 =
  lazy
    (let p = Bench_kit.Programs.bv 8 in
     ( Triq.Pipeline.to_compiled
         (Triq.Pipeline.compile_level Device.Machines.ibmq16
            p.Bench_kit.Programs.circuit ~level:Triq.Pipeline.OneQOptCN),
       p.Bench_kit.Programs.spec ))

let sim_timing_tests =
  let open Bechamel in
  let staged name f = Test.make ~name (Staged.stage f) in
  let cfg backend fusion =
    Sim.Runner.Config.make ~trajectories:60 ~backend ~fusion ()
  in
  let bv8 backend =
    let c, s = Lazy.force sim_bv8 in
    fun () ->
      ignore
        (Sim.Runner.simulate
           ~config:(Sim.Runner.Config.make ~trajectories:200 ~backend ())
           c s)
  in
  [
    staged "sim:sv-nofusion"
      (sim_sweep ~config:(cfg Sim.Runner.Config.Statevector false));
    staged "sim:sv-fusion"
      (sim_sweep ~config:(cfg Sim.Runner.Config.Statevector true));
    staged "sim:auto" (sim_sweep ~config:(cfg Sim.Runner.Config.Auto true));
    staged "sim:bv8-statevector" (bv8 Sim.Runner.Config.Statevector);
    staged "sim:bv8-stabilizer" (bv8 Sim.Runner.Config.Stabilizer);
  ]

let collect_timings () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let name = Test.Elt.name elt in
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          match Analyze.OLS.estimates result with
          | Some [ ns ] ->
            Printf.printf "%-28s %12.0f ns/run\n%!" name ns;
            (name, Some ns)
          | _ ->
            Printf.printf "%-28s (no estimate)\n%!" name;
            (name, None))
        (Test.elements test))
    (timing_tests @ sim_timing_tests)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Sequential-vs-parallel wall clock on a fig9-style trajectory workload:
   one compiled executable, 300 Monte-Carlo trajectories. The outcomes
   must be identical — the pool only changes where trajectories run. *)
let seq_vs_par ?(trajectories = 300) () =
  let p = Bench_kit.Programs.bv 6 in
  let compiled =
    Triq.Pipeline.to_compiled
      (Triq.Pipeline.compile_schedule Device.Machines.ibmq14
         p.Bench_kit.Programs.circuit
         (Triq.Pass.Schedule.of_level Triq.Pipeline.OneQOptCN))
  in
  let spec = p.Bench_kit.Programs.spec in
  let run pool = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories ~pool ()) compiled spec in
  (* At least two domains for the parallel leg, so the comparison stays
     meaningful on single-core CI containers. *)
  let jobs = max 2 (Parallel.Pool.default_jobs ()) in
  Parallel.Pool.with_pool ~jobs:1 (fun seq_pool ->
      Parallel.Pool.with_pool ~jobs (fun par_pool ->
          ignore (run seq_pool);
          (* warm code + allocator *)
          let o1, seq_s = wall (fun () -> run seq_pool) in
          let o2, par_s = wall (fun () -> run par_pool) in
          if o1.Sim.Runner.distribution <> o2.Sim.Runner.distribution then
            failwith "parallel trajectory run diverged from sequential";
          (seq_s, par_s, jobs)))

(* Backend/fusion wall clock on the full fig12-style grid at real
   trajectory counts — the headline numbers behind the "simulation"
   section of BENCH_timings.json. Statevector-without-fusion is the
   pre-optimization baseline; fusion and Auto dispatch (stabilizer /
   hybrid where the circuit allows) are the two optimization layers. *)
let backend_effect ?(trajectories = 300) () =
  let run config = sim_sweep ~config () in
  let cfg backend fusion =
    Sim.Runner.Config.make ~trajectories ~backend ~fusion ()
  in
  let base = cfg Sim.Runner.Config.Statevector false in
  let fuse = cfg Sim.Runner.Config.Statevector true in
  let auto = cfg Sim.Runner.Config.Auto true in
  run auto;
  (* warm code, caches and the lazy cell compile *)
  let (), base_s = wall (fun () -> run base) in
  let (), fuse_s = wall (fun () -> run fuse) in
  let (), auto_s = wall (fun () -> run auto) in
  (List.length (Lazy.force sim_cells), trajectories, base_s, fuse_s, auto_s)

(* Sweep-level sharding vs trajectory-only parallelism on the same grid:
   "sharded" fans the individual (machine, benchmark) cells across the
   pool the way Experiments.grid_rows does; "trajectory-only" walks the
   cells sequentially and lets each cell parallelize only its own
   trajectory blocks. Outcomes must be identical — each cell seeds its
   own RNG, so sharding is pure scheduling. *)
let sharding_effect ?(trajectories = 150) () =
  let cells = Lazy.force sim_cells in
  let jobs = max 2 (Parallel.Pool.default_jobs ()) in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let config = Sim.Runner.Config.make ~trajectories ~pool () in
      let run_cell (c, s) = Sim.Runner.simulate ~config c s in
      ignore (Parallel.Pool.map pool run_cell cells);
      (* warm *)
      let o1, traj_only_s = wall (fun () -> List.map run_cell cells) in
      let o2, shard_s = wall (fun () -> Parallel.Pool.map pool run_cell cells) in
      if o1 <> o2 then
        failwith "sharded sweep diverged from trajectory-only sweep";
      (traj_only_s, shard_s, jobs))

(* Reliability-matrix cache: per-call cost cached vs uncached, plus the
   hit rate over a real sweep (fig10's compile grid). *)
let cache_effect ?(reps = 50) () =
  let machine = Device.Machines.ibmq16 in
  let calibration = Device.Machine.calibration machine ~day:0 in
  let (), uncached_s =
    wall (fun () ->
        for _ = 1 to reps do
          ignore (Triq.Reliability.compute ~noise_aware:true machine calibration)
        done)
  in
  Triq.Reliability.cache_clear ();
  let (), cached_s =
    wall (fun () ->
        for _ = 1 to reps do
          ignore (Triq.Reliability.compute_cached ~noise_aware:true machine ~day:0)
        done)
  in
  Triq.Reliability.cache_clear ();
  ignore (E.fig10_counts ());
  let { Parallel.Memo.hits; misses; _ } = Triq.Reliability.cache_stats () in
  ( uncached_s /. float_of_int reps,
    cached_s /. float_of_int reps,
    hits,
    misses )

(* Layout cache: cold solve (caches cleared before each call) vs O(1)
   cache hit on the bv6@IBMQ14 mapping problem, plus the cache's stats
   after the run. *)
let layout_cache_effect ?(reps = 50) () =
  let machine = Device.Machines.ibmq14 in
  let reliability =
    Triq.Reliability.compute_cached ~noise_aware:true machine ~day:0
  in
  let flat =
    Ir.Decompose.flatten (Bench_kit.Programs.bv 6).Bench_kit.Programs.circuit
  in
  let solve () =
    Triq.Placement.solve ~reliability ~machine_name:machine.Device.Machine.name
      ~day:0 flat
  in
  let (), cold_s =
    wall (fun () ->
        for _ = 1 to reps do
          Triq.Placement.cache_clear ();
          ignore (solve ())
        done)
  in
  Triq.Placement.cache_clear ();
  ignore (solve ());
  (* populate: one miss *)
  let (), hit_s =
    wall (fun () ->
        for _ = 1 to reps do
          ignore (solve ())
        done)
  in
  let stats = Triq.Placement.cache_stats () in
  (cold_s /. float_of_int reps, hit_s /. float_of_int reps, stats)

(* Per-pass compile-time attribution from the pass runner (Section 6.5):
   average each schedule pass's wall clock over [reps] compiles of
   bv6@IBMQ14 at TriQ-1QOptCN, so future perf work can attribute wins to
   individual passes. The reliability and layout caches are cleared first
   so the reliability and mapping passes show their uncached cost on the
   first rep (and their steady-state cached cost on the rest — repeated
   compile traffic is the sweep drivers' common case). *)
let per_pass_breakdown ?(reps = 20) () =
  let p = Bench_kit.Programs.bv 6 in
  let machine = Device.Machines.ibmq14 in
  let schedule = Triq.Pass.Schedule.of_level Triq.Pipeline.OneQOptCN in
  Triq.Reliability.cache_clear ();
  Triq.Placement.cache_clear ();
  let totals = Hashtbl.create 16 in
  let order = ref [] in
  for _ = 1 to reps do
    let r =
      Triq.Pipeline.compile_schedule machine p.Bench_kit.Programs.circuit schedule
    in
    List.iter
      (fun (name, s) ->
        if not (Hashtbl.mem totals name) then order := name :: !order;
        Hashtbl.replace totals name (s +. (try Hashtbl.find totals name with Not_found -> 0.0)))
      r.Triq.Pipeline.pass_times_s
  done;
  List.rev_map
    (fun name -> (name, Hashtbl.find totals name /. float_of_int reps))
    !order

(* BENCH_timings.json is built on Obs.Json and enriched with the
   observability registry: alongside the Bechamel stage timings and the
   per-pass compile breakdown, it carries the reliability cache's
   process-lifetime counters and the domain pool's queue-wait and busy
   histograms (recorded because the timings/smoke drivers enable
   Obs.Metrics before running their workloads). *)

(* Single metric rendered the same way `triqc metrics --json` renders it
   (counter -> int, gauge -> float, histogram -> {count,sum,buckets}). *)
let metric_json name =
  match List.assoc_opt name (Obs.Metrics.dump ()) with
  | None -> Obs.Json.Null
  | Some v -> (
    match Obs.Export.metrics_json [ (name, v) ] with
    | Obs.Json.Obj [ (_, j) ] -> j
    | j -> j)

(* The cumulative counters every Parallel.Memo instance registers. *)
let memo_counters_json name =
  let count c =
    match List.assoc_opt (name ^ "." ^ c) (Obs.Metrics.dump ()) with
    | Some (Obs.Metrics.Counter n) -> Obs.Json.Int n
    | _ -> Obs.Json.Int 0
  in
  Obs.Json.Obj (List.map (fun c -> (c, count c)) [ "hits"; "misses"; "evictions" ])

let timings_payload stages per_pass (seq_s, par_s, jobs)
    (unc, cac, hits, misses) (l_cold, l_hit, l_stats)
    (sim_cells_n, sim_traj, base_s, fuse_s, auto_s)
    (traj_only_s, shard_s, shard_jobs) =
  let open Obs.Json in
  let ns s = Float (Float.round (s *. 1e9)) in
  Obj
    [
      ("jobs", Int jobs);
      ( "stages",
        List
          (List.map
             (fun (name, est) ->
               Obj
                 [
                   ("name", Str name);
                   ( "ns_per_run",
                     match est with
                     | Some v -> Float (Float.round v)
                     | None -> Null );
                 ])
             stages) );
      ( "per_pass",
        Obj
          [
            ("workload", Str "bv6@IBMQ14 TriQ-1QOptCN");
            ( "passes",
              List
                (List.map
                   (fun (name, s) ->
                     Obj [ ("name", Str name); ("ns_per_compile", ns s) ])
                   per_pass) );
          ] );
      ( "trajectory_experiment",
        Obj
          [
            ("name", Str "fig9-style bv6@ibmq14 trajectory sweep");
            ("sequential_ns", ns seq_s);
            ("parallel_ns", ns par_s);
            ("parallel_jobs", Int jobs);
            ( "speedup",
              if par_s > 0.0 then Float (seq_s /. par_s) else Null );
          ] );
      ( "reliability_cache",
        Obj
          [
            ("uncached_ns_per_call", ns unc);
            ("cached_ns_per_call", ns cac);
            ("sweep", Str "fig10 compile grid");
            ("sweep_hits", Int hits);
            ("sweep_misses", Int misses);
            ("counters", memo_counters_json "triq.reliability.cache");
          ] );
      ( "layout_cache",
        Obj
          [
            ("workload", Str "bv6@IBMQ14 mapping problem");
            ("cold_solve_ns_per_call", ns l_cold);
            ("hit_ns_per_call", ns l_hit);
            ( "speedup",
              if l_hit > 0.0 then Float (l_cold /. l_hit) else Null );
            ("hits", Int l_stats.Parallel.Memo.hits);
            ("misses", Int l_stats.Parallel.Memo.misses);
            ("evictions", Int l_stats.Parallel.Memo.evictions);
            ("entries", Int l_stats.Parallel.Memo.size);
            ("counters", memo_counters_json "layout.cache");
          ] );
      ( "simulation",
        Obj
          [
            ( "sweep",
              Str "fig12-style grid: all fitting benchmarks x Table 2 machines \
                   @ TriQ-1QOptCN" );
            ("cells", Int sim_cells_n);
            ("trajectories", Int sim_traj);
            ("statevector_nofusion_ns", ns base_s);
            ("statevector_fusion_ns", ns fuse_s);
            ("auto_ns", ns auto_s);
            ( "fusion_speedup",
              if fuse_s > 0.0 then Float (base_s /. fuse_s) else Null );
            ( "auto_speedup",
              if auto_s > 0.0 then Float (base_s /. auto_s) else Null );
            ( "sharding",
              Obj
                [
                  ("trajectory_only_ns", ns traj_only_s);
                  ("sharded_ns", ns shard_s);
                  ("jobs", Int shard_jobs);
                  ( "speedup",
                    if shard_s > 0.0 then Float (traj_only_s /. shard_s)
                    else Null );
                ] );
          ] );
      ( "pool",
        Obj
          [
            ("jobs", metric_json "parallel.pool.jobs");
            ("tasks", metric_json "parallel.pool.tasks");
            ("queue_wait_ns", metric_json "parallel.pool.queue_wait_ns");
            ("busy_ns", metric_json "parallel.pool.busy_ns");
          ] );
    ]

let write_timings_json path payload =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string ~pretty:true payload);
      Out_channel.output_char oc '\n')

let run_timings () =
  print_newline ();
  print_endline "== Bechamel timing suite (per-experiment harness cost) ==";
  (* Switch on the gated metrics so the pool's queue-wait/busy histograms
     record during seq_vs_par; counters are live regardless. *)
  Obs.Metrics.enable ();
  let stages = collect_timings () in
  let per_pass = per_pass_breakdown () in
  print_endline "per-pass compile time (bv6@IBMQ14, TriQ-1QOptCN):";
  List.iter
    (fun (name, s) -> Printf.printf "  %-15s %10.0f ns/compile\n" name (s *. 1e9))
    per_pass;
  let sp = seq_vs_par () in
  let ce = cache_effect () in
  let seq_s, par_s, jobs = sp in
  Printf.printf "trajectory experiment: sequential %.3fs, parallel %.3fs (-j %d, %.2fx)\n"
    seq_s par_s jobs
    (if par_s > 0.0 then seq_s /. par_s else Float.nan);
  let unc, cac, hits, misses = ce in
  Printf.printf
    "reliability matrix: uncached %.0f ns/call, cached %.0f ns/call; fig10 sweep: %d hits, %d misses\n"
    (unc *. 1e9) (cac *. 1e9) hits misses;
  let lc = layout_cache_effect () in
  let l_cold, l_hit, l_stats = lc in
  Printf.printf
    "layout cache: cold solve %.0f ns/call, hit %.0f ns/call (%.0fx); %d hits, %d misses\n"
    (l_cold *. 1e9) (l_hit *. 1e9)
    (if l_hit > 0.0 then l_cold /. l_hit else Float.nan)
    l_stats.Parallel.Memo.hits l_stats.Parallel.Memo.misses;
  let be = backend_effect () in
  let cells_n, traj, base_s, fuse_s, auto_s = be in
  Printf.printf
    "simulation backends (%d cells, %d traj): statevector %.1f ms, fused %.1f ms (%.2fx), auto %.1f ms (%.2fx)\n"
    cells_n traj (base_s *. 1e3) (fuse_s *. 1e3)
    (if fuse_s > 0.0 then base_s /. fuse_s else Float.nan)
    (auto_s *. 1e3)
    (if auto_s > 0.0 then base_s /. auto_s else Float.nan);
  let sh = sharding_effect () in
  let traj_only_s, shard_s, shard_jobs = sh in
  Printf.printf
    "sweep sharding: trajectory-only %.1f ms, sharded %.1f ms (-j %d, %.2fx)\n"
    (traj_only_s *. 1e3) (shard_s *. 1e3) shard_jobs
    (if shard_s > 0.0 then traj_only_s /. shard_s else Float.nan);
  write_timings_json "BENCH_timings.json"
    (timings_payload stages per_pass sp ce lc be sh);
  print_endline "wrote BENCH_timings.json"

(* A CI-fast correctness gate (wired under `dune runtest`): the parallel
   execution layer must be invisible in the results. *)
let run_smoke () =
  let traj = 5 in
  let grid jobs =
    Parallel.Pool.set_default_jobs jobs;
    E.fig9_data ~trajectories:traj ()
  in
  let seq = grid 1 in
  let par = grid 4 in
  if seq <> par then begin
    prerr_endline "SMOKE FAIL: fig9 grid differs between -j 1 and -j 4";
    exit 1
  end;
  let machine = Device.Machines.ibmq14 in
  let calibration = Device.Machine.calibration machine ~day:2 in
  Triq.Reliability.cache_clear ();
  let cached = Triq.Reliability.compute_cached ~noise_aware:true machine ~day:2 in
  let fresh = Triq.Reliability.compute ~noise_aware:true machine calibration in
  if not (Triq.Reliability.equal cached fresh) then begin
    prerr_endline "SMOKE FAIL: cached reliability matrix differs from fresh";
    exit 1
  end;
  Printf.printf
    "smoke ok: fig9 grid (%d trajectories) identical at -j 1 and -j 4; reliability cache exact\n"
    traj;
  (* Enriched-schema gate: build a quick timings payload (no Bechamel
     suite), write it to a temp file, re-parse it with the independent
     Device.Json reader, and assert the per-pass, cache and pool
     sections are all present. *)
  Obs.Metrics.enable ();
  let per_pass = per_pass_breakdown ~reps:2 () in
  let sp = seq_vs_par ~trajectories:20 () in
  let ce = cache_effect ~reps:5 () in
  let lc = layout_cache_effect ~reps:5 () in
  let be = backend_effect ~trajectories:10 () in
  let sh = sharding_effect ~trajectories:5 () in
  let path = Filename.temp_file "bench_timings_smoke" ".json" in
  write_timings_json path (timings_payload [] per_pass sp ce lc be sh);
  let doc =
    Device.Json.parse (In_channel.with_open_text path In_channel.input_all)
  in
  Sys.remove path;
  List.iter
    (fun keys ->
      try ignore (List.fold_left (fun j k -> Device.Json.member k j) doc keys)
      with Invalid_argument msg ->
        Printf.eprintf "SMOKE FAIL: BENCH_timings.json missing %s (%s)\n"
          (String.concat "." keys) msg;
        exit 1)
    [
      [ "stages" ];
      [ "per_pass"; "passes" ];
      [ "trajectory_experiment"; "speedup" ];
      [ "reliability_cache"; "sweep_hits" ];
      [ "reliability_cache"; "sweep_misses" ];
      [ "reliability_cache"; "counters"; "hits" ];
      [ "reliability_cache"; "counters"; "misses" ];
      [ "layout_cache"; "cold_solve_ns_per_call" ];
      [ "layout_cache"; "hit_ns_per_call" ];
      [ "layout_cache"; "counters"; "hits" ];
      [ "simulation"; "statevector_nofusion_ns" ];
      [ "simulation"; "fusion_speedup" ];
      [ "simulation"; "auto_speedup" ];
      [ "simulation"; "sharding"; "speedup" ];
      [ "pool"; "tasks" ];
      [ "pool"; "queue_wait_ns"; "buckets" ];
      [ "pool"; "busy_ns"; "count" ];
    ];
  print_endline
    "smoke ok: enriched BENCH_timings.json schema (stages, per_pass, \
     reliability_cache, layout_cache, simulation, pool)"

(* CI regression guard over committed timings: read the mapping pass's
   ns_per_compile out of two BENCH_timings.json files and fail when the
   fresh run exceeds twice the committed baseline. *)
let mapping_ns_per_compile path =
  let doc =
    Device.Json.parse (In_channel.with_open_text path In_channel.input_all)
  in
  let passes =
    Device.Json.to_list (Device.Json.member "passes" (Device.Json.member "per_pass" doc))
  in
  let rec find = function
    | [] -> failwith (path ^ ": no \"mapping\" entry under per_pass.passes")
    | p :: rest ->
      if Device.Json.to_str (Device.Json.member "name" p) = "mapping" then
        Device.Json.to_float (Device.Json.member "ns_per_compile" p)
      else find rest
  in
  find passes

let run_guard baseline fresh =
  let base_ns = mapping_ns_per_compile baseline in
  let fresh_ns = mapping_ns_per_compile fresh in
  let limit = 2.0 *. base_ns in
  Printf.printf
    "guard: per_pass.mapping.ns_per_compile baseline %.0f ns, fresh %.0f ns, limit %.0f ns\n"
    base_ns fresh_ns limit;
  if fresh_ns > limit then begin
    Printf.eprintf
      "GUARD FAIL: mapping pass regressed to %.2fx the committed baseline\n"
      (fresh_ns /. base_ns);
    exit 1
  end;
  print_endline "guard ok: mapping pass within 2x of the committed baseline"

let () =
  let argv = Array.to_list Sys.argv in
  (* Optional leading `-j N` sizes the domain pool for everything below. *)
  let args =
    match argv with
    | _ :: "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some jobs when jobs >= 1 ->
        Parallel.Pool.set_default_jobs jobs;
        rest
      | _ ->
        Printf.eprintf "bench: -j expects a positive integer, got %S\n" n;
        exit 2)
    | _ :: rest -> rest
    | [] -> []
  in
  match args with
  | [ "timings" ] -> run_timings ()
  | [ "smoke" ] -> run_smoke ()
  | [ "guard"; baseline; fresh ] -> run_guard baseline fresh
  | [ "quick" ] ->
    List.iter
      (fun ((_, f) : string * (?trajectories:int -> unit -> unit)) ->
        f ~trajectories:50 ())
      experiments
  | [ name ] -> (
    match List.assoc_opt name experiments with
    | Some (f : ?trajectories:int -> unit -> unit) -> f ()
    | None ->
      Printf.eprintf "unknown experiment %S; known: %s timings quick smoke guard\n" name
        (String.concat " " (List.map fst experiments));
      exit 2)
  | _ ->
    List.iter
      (fun ((_, f) : string * (?trajectories:int -> unit -> unit)) -> f ())
      experiments;
    run_timings ()
