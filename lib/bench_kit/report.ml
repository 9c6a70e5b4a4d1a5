module Machine = Device.Machine

let section buf title = Buffer.add_string buf (Printf.sprintf "\n## %s\n\n" title)

let row_md buf ?note rows to_string =
  match rows with
  | [] -> ()
  | (first : _ Experiments.row) :: _ ->
    let header = "Benchmark" :: List.map fst first.Experiments.values in
    let body =
      List.map
        (fun (r : _ Experiments.row) ->
          r.Experiments.bench :: List.map (fun (_, v) -> to_string v) r.Experiments.values)
        rows
    in
    Buffer.add_string buf (Table.markdown ~header body);
    Option.iter (fun n -> Buffer.add_string buf (Printf.sprintf "\n%s\n" n)) note

let generate ?trajectories () =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "# TriQ reproduction — live experiment report\n\n\
     Regenerated by `dune exec bench/main.exe report`. Deterministic for a\n\
     given build (fixed seeds).\n";
  section buf "Figure 1 — device characteristics";
  Buffer.add_string buf
    (Table.markdown
       ~header:
         [ "Machine"; "Qubits"; "2Q couplings"; "T (us)"; "1Q err %"; "2Q err %";
           "RO err %"; "Topology" ]
       (Experiments.fig1_rows ()));
  section buf "Figure 3 — daily 2Q error variation (IBMQ14)";
  List.iter
    (fun ((a, b), values) ->
      Buffer.add_string buf
        (Printf.sprintf "- CNOT %d,%d: min %.3f, max %.3f over 26 days\n" a b
           (Mathkit.Stats.minimum values) (Mathkit.Stats.maximum values)))
    (Experiments.fig3_series ());
  section buf "Figure 8 — native 1Q pulse counts (TriQ-N vs TriQ-1QOpt)";
  List.iter
    (fun (name, rows) ->
      Buffer.add_string buf (Printf.sprintf "\n**%s**\n\n" name);
      row_md buf rows Table.opt_int)
    (Experiments.fig8_data ());
  section buf "Figure 9 — success rate (TriQ-N vs TriQ-1QOpt)";
  List.iter
    (fun (name, rows) ->
      Buffer.add_string buf (Printf.sprintf "\n**%s**\n\n" name);
      row_md buf rows Table.opt_f2)
    (Experiments.fig9_data ?trajectories ());
  section buf "Figure 10 — communication optimization (2Q counts)";
  List.iter
    (fun (name, rows) ->
      Buffer.add_string buf (Printf.sprintf "\n**%s**\n\n" name);
      row_md buf rows Table.opt_int)
    (Experiments.fig10_counts ());
  section buf "Figure 11 — noise adaptivity (success rates, IBMQ14)";
  row_md buf (Experiments.fig11_ibm_success ?trajectories ()) Table.opt_f2;
  section buf "Figure 12 — 12 benchmarks x 7 systems (TriQ-1QOptCN)";
  row_md buf (Experiments.fig12_data ?trajectories ()) Table.opt_f2;
  section buf "Section 6.5 — compile-time scaling";
  (* A full or quick bench run reaches this after its scaling section has
     compiled the same grids, so these compiles hit the layout and
     reliability caches; a run of the report alone compiles them cold. *)
  Buffer.add_string buf
    (Table.markdown ~header:[ "Grid"; "Qubits"; "2Q (mapped)"; "Compile (s, warm caches)" ]
       (List.map
          (fun (label, n, twoq, secs) ->
            [ label; string_of_int n; string_of_int twoq; Printf.sprintf "%.2f" secs ])
          (Experiments.scaling_data ())));
  section buf "Headline summary (paper vs measured)";
  Buffer.add_string buf
    (Table.markdown ~header:[ "Metric"; "Paper"; "Measured" ]
       (List.map
          (fun (m, p, o) -> [ m; p; o ])
          (Experiments.summary_data ?trajectories ())));
  section buf "Extensions";
  Buffer.add_string buf "\n**Large ion trap (Sec 6.3 projection)**\n\n";
  row_md buf (Experiments.iontrap_data ?trajectories ()) Table.opt_f2;
  Buffer.add_string buf "\n**Routing ablation (IBMQ14)**\n\n";
  row_md buf (Experiments.ablation_routing_data ?trajectories ()) Table.opt_f2;
  Buffer.add_string buf "\n**Characterization closure**\n\n";
  Buffer.add_string buf
    (Table.markdown
       ~header:[ "Machine"; "1Q inj"; "1Q recovered"; "2Q inj"; "2Q recovered" ]
       (List.map
          (fun (name, i1, r1, i2, r2) ->
            [
              name; Printf.sprintf "%.4f" i1; Printf.sprintf "%.4f" r1;
              Printf.sprintf "%.4f" i2; Printf.sprintf "%.4f" r2;
            ])
          (Experiments.characterize_data ())));
  Buffer.contents buf
