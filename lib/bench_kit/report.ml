type run = {
  fig1 : string list list Lazy.t;
  fig3 : ((int * int) * float list) list Lazy.t;
  fig8 : unit -> (string * int Cell.row list) list;
  fig9 : unit -> (string * float Cell.row list) list;
  fig10_counts : unit -> (string * int Cell.row list) list;
  fig10_success : unit -> float Cell.row list;
  fig11_counts : unit -> int Cell.row list;
  fig11_ibm : unit -> float Cell.row list;
  fig11_rigetti : unit -> (string * float Cell.row list) list;
  fig11_sequences : unit -> (string * float Cell.row list) list;
  fig12 : unit -> float Cell.row list;
  esp : unit -> (float * float) Cell.row list;
  scaling : string list list Lazy.t;
  related : unit -> int Cell.row list;
  mapper : (string * Layout.Report.t * Layout.Report.t * Layout.Report.t) list Lazy.t;
  peephole : unit -> (string * int * int) list;
  iontrap : unit -> float Cell.row list;
  tannu : unit -> (int * float * float) list;
  coherence : unit -> (string * (int * int * float * float * float)) list;
  characterize : string list list Lazy.t;
  routing : unit -> float Cell.row list;
  staleness : unit -> (int * float * float) list;
  lookahead : unit -> (string * (int * float) * (int * float)) list;
  summary : string list list Lazy.t;
  properties : unit -> (string * string list list) list;
  heavyhex : unit -> float Cell.row list;
  variability : unit -> (string * float list) list;
  parametric : unit -> (string * string * int * float * int * float) list;
  noise_model : unit -> (string * float * float) list;
  ghz : unit -> (string * float) list;
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
  groups_md Table.opt_int (r.fig8 ());
  section "Figure 9 — success rate (TriQ-N vs TriQ-1QOpt)";
  groups_md Table.opt_f2 (r.fig9 ());
  section "Figure 10 — communication optimization (2Q counts)";
  groups_md Table.opt_int (r.fig10_counts ());
  section "Figure 11 — noise adaptivity (success rates, IBMQ14)";
  rows_md Table.opt_f2 (r.fig11_ibm ());
  section "Figure 12 — 12 benchmarks x 7 systems (TriQ-1QOptCN)";
  rows_md Table.opt_f2 (r.fig12 ());
  section "Section 6.5 — compile-time scaling";
  add
    (Table.markdown ~header:[ "Grid"; "Qubits"; "2Q (mapped)"; "Compile (s)" ]
       (Lazy.force r.scaling));
  section "Headline summary (paper vs measured)";
  add (Table.markdown ~header:[ "Metric"; "Paper"; "Measured" ] (Lazy.force r.summary));
  section "Extensions";
  add "\n**Large ion trap (Sec 6.3 projection)**\n\n";
  rows_md Table.opt_f2 (r.iontrap ());
  add "\n**Routing ablation (IBMQ14)**\n\n";
  rows_md Table.opt_f2 (r.routing ());
  add "\n**Characterization closure**\n\n";
  add
    (Table.markdown
       ~header:[ "Machine"; "1Q inj"; "1Q recovered"; "2Q inj"; "2Q recovered" ]
       (Lazy.force r.characterize));
  Buffer.contents buf
