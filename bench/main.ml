(* Figure and table regenerator: reproduces every table and figure of the
   paper's evaluation, printed as text tables. Performance is measured by
   perfbench/ (see perfbench/README.md), not here.

   Usage:
     main.exe [-j N]         run every experiment
     main.exe [-j N] quick   same with fewer noise trajectories (CI-friendly)
     main.exe [-j N] <id>    one experiment: fig1 fig2 fig3 tab1 fig5 fig6
                             fig7 fig8 fig9 fig10 fig11 fig12 scaling related
                             (and the rest of the table below)

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
  let run_all ?trajectories () =
    List.iter
      (fun ((_, f) : string * (?trajectories:int -> unit -> unit)) ->
        f ?trajectories ())
      experiments
  in
  match args with
  | [] -> run_all ()
  | [ "quick" ] -> run_all ~trajectories:50 ()
  | [ name ] when List.mem_assoc name experiments ->
    (List.assoc name experiments : ?trajectories:int -> unit -> unit) ()
  | _ ->
    Printf.eprintf "unknown experiment %S; known: %s quick\n"
      (String.concat " " args)
      (String.concat " " (List.map fst experiments));
    exit 2
