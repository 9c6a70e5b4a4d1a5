(* Figure and table regenerator: reproduces every table and figure of the
   paper's evaluation, printed as text tables. Performance is measured by
   perfbench/ (see perfbench/README.md), not here.

   Usage:
     main.exe [-j N]         run every section
     main.exe [-j N] quick   same with fewer noise trajectories (CI-friendly)
     main.exe [-j N] <id>    one section of Bench_kit.Experiments.sections
                             (an unknown id prints the list)

   Every section of one process renders from one Experiments.run, so no
   grid is computed twice. -j N sizes the domain pool (default:
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
    let run = E.run ?trajectories () in
    List.iter (fun (_, section) -> section run) sections
  in
  match args with
  | [] -> render E.sections
  | [ "quick" ] -> render ~trajectories:50 E.sections
  | [ id ] when List.mem_assoc id E.sections -> render [ (id, List.assoc id E.sections) ]
  | _ ->
    Printf.eprintf "unknown experiment %S; known: %s quick\n"
      (String.concat " " args)
      (String.concat " " (List.map fst E.sections));
    exit 2
