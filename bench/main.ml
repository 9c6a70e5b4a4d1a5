(* Figure and table regenerator: reproduces every table and figure of the
   paper's evaluation, printed as text tables. Performance is measured by
   perfbench/ (see perfbench/README.md), not here.

   Usage:
     main.exe [-j N]         run every section
     main.exe [-j N] quick   same with fewer noise trajectories (CI-friendly)
     main.exe [-j N] <id>    one section of Bench_kit.Experiments.sections
                             (an unknown id prints the list)

   The sections of one process render from one Experiments.run, which
   compiles and simulates the cells they read as one batch: each distinct
   cell once. -j N sizes the domain pool (default:
   Domain.recommended_domain_count); results are bit-for-bit identical for
   every N. *)

module E = Bench_kit.Experiments

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
  let render ?trajectories sections =
    let run = E.run ?trajectories sections in
    List.iter (fun s -> s.E.render run) sections
  in
  match (args, List.filter (fun s -> [ s.E.id ] = args) E.sections) with
  | [], _ -> render E.sections
  | [ "quick" ], _ -> render ~trajectories:50 E.sections
  | _, [ section ] -> render [ section ]
  | _ ->
    Printf.eprintf "unknown experiment %S; known: %s quick\n"
      (String.concat " " args)
      (String.concat " " (List.map (fun s -> s.E.id) E.sections));
    exit 2
