type run = {
  fig1 : string list list Lazy.t;
  fig3 : ((int * int) * float list) list Lazy.t;
  fig8 : (string * int Cell.row list) list Lazy.t;
  fig9 : (string * float Cell.row list) list Lazy.t;
  fig10_counts : (string * int Cell.row list) list Lazy.t;
  fig10_success : float Cell.row list Lazy.t;
  fig11_ibm : (int * float) Cell.row list Lazy.t;
  fig11_rigetti : (string * float Cell.row list) list Lazy.t;
  fig11_sequences : (string * float Cell.row list) list Lazy.t;
  fig12 : (float * float) Cell.row list Lazy.t;
  scaling : string list list Lazy.t;
  related : int Cell.row list Lazy.t;
  mapper : (string * Layout.Report.t * Layout.Report.t * Layout.Report.t) list Lazy.t;
  peephole : (string * int * int) list Lazy.t;
  iontrap : float Cell.row list Lazy.t;
  tannu : (int * float * float) list Lazy.t;
  coherence : (string * (int * int * float * float * float)) list Lazy.t;
  characterize : string list list Lazy.t;
  routing : float Cell.row list Lazy.t;
  staleness : (int * float * float) list Lazy.t;
  lookahead : (string * (int * float) * (int * float)) list Lazy.t;
  summary : string list list Lazy.t;
  properties : (string * string list list) list Lazy.t;
  heavyhex : float Cell.row list Lazy.t;
  variability : (string * float list) list Lazy.t;
  parametric : (string * string * int * float * int * float) list Lazy.t;
  noise_model : (string * float * float) list Lazy.t;
  ghz : (string * float) list Lazy.t;
}

let generate r =
  let buf = Buffer.create 16384 in
  let add = Buffer.add_string buf in
  let section title = add (Printf.sprintf "\n## %s\n\n" title) in
  let rows_md to_string rows =
    match Table.row_table to_string rows with
    | [], _ -> ()
    | header, body -> add (Table.markdown ~header body)
  in
  let groups_md to_string groups =
    List.iter
      (fun (name, rows) ->
        add (Printf.sprintf "\n**%s**\n\n" name);
        rows_md to_string rows)
      groups
  in
  let success v = Table.opt_f2 (Option.map snd v) in
  add
    "# TriQ reproduction — live experiment report\n\n\
     Regenerated by `dune exec bench/main.exe report`. Deterministic for a\n\
     given build (fixed seeds).\n";
  section "Figure 1 — device characteristics";
  add
    (Table.markdown
       ~header:
         [ "Machine"; "Qubits"; "2Q couplings"; "T (us)"; "1Q err %"; "2Q err %";
           "RO err %"; "Topology" ]
       (Lazy.force r.fig1));
  section "Figure 3 — daily 2Q error variation (IBMQ14)";
  List.iter
    (fun ((a, b), values) ->
      add
        (Printf.sprintf "- CNOT %d,%d: min %.3f, max %.3f over 26 days\n" a b
           (Mathkit.Stats.minimum values) (Mathkit.Stats.maximum values)))
    (Lazy.force r.fig3);
  section "Figure 8 — native 1Q pulse counts (TriQ-N vs TriQ-1QOpt)";
  groups_md Table.opt_int (Lazy.force r.fig8);
  section "Figure 9 — success rate (TriQ-N vs TriQ-1QOpt)";
  groups_md Table.opt_f2 (Lazy.force r.fig9);
  section "Figure 10 — communication optimization (2Q counts)";
  groups_md Table.opt_int (Lazy.force r.fig10_counts);
  section "Figure 11 — noise adaptivity (success rates, IBMQ14)";
  rows_md success (Lazy.force r.fig11_ibm);
  section "Figure 12 — 12 benchmarks x 7 systems (TriQ-1QOptCN)";
  rows_md success (Lazy.force r.fig12);
  section "Section 6.5 — compile-time scaling";
  add
    (Table.markdown ~header:[ "Grid"; "Qubits"; "2Q (mapped)"; "Compile (s)" ]
       (Lazy.force r.scaling));
  section "Headline summary (paper vs measured)";
  add (Table.markdown ~header:[ "Metric"; "Paper"; "Measured" ] (Lazy.force r.summary));
  section "Extensions";
  add "\n**Large ion trap (Sec 6.3 projection)**\n\n";
  rows_md Table.opt_f2 (Lazy.force r.iontrap);
  add "\n**Routing ablation (IBMQ14)**\n\n";
  rows_md Table.opt_f2 (Lazy.force r.routing);
  add "\n**Characterization closure**\n\n";
  add
    (Table.markdown
       ~header:[ "Machine"; "1Q inj"; "1Q recovered"; "2Q inj"; "2Q recovered" ]
       (Lazy.force r.characterize));
  Buffer.contents buf
