(** One bench run's data, and its live markdown report.

    A {!run} holds every experiment's data for one process.
    {!Experiments.run} builds it, {!Experiments.sections} renders it as
    text tables, and {!generate} renders the same grids as markdown: the
    machine-written counterpart of the hand-annotated EXPERIMENTS.md,
    printed by [dune exec bench/main.exe report]. The type is defined
    here, ahead of {!Experiments}, because the report is one of those
    sections. A cell grid is a getter of the run's one batch, a cell-free
    grid is lazy; both rules are stated at {!Experiments.run}. *)

type run = {
  fig1 : string list list Lazy.t;  (** one row per machine *)
  fig3 : ((int * int) * float list) list Lazy.t;  (** 26 days per IBMQ14 coupling *)
  fig8 : unit -> (string * int Cell.row list) list;  (** 1Q pulses per machine *)
  fig9 : unit -> (string * float Cell.row list) list;  (** success per machine *)
  fig10_counts : unit -> (string * int Cell.row list) list;  (** 2Q counts per machine *)
  fig10_success : unit -> float Cell.row list;
  fig11_counts : unit -> int Cell.row list;  (** 2Q counts on IBMQ14 *)
  fig11_ibm : unit -> float Cell.row list;  (** success on IBMQ14 *)
  fig11_rigetti : unit -> (string * float Cell.row list) list;  (** success per machine *)
  fig11_sequences : unit -> (string * float Cell.row list) list;  (** success per series *)
  fig12 : unit -> float Cell.row list;  (** success *)
  esp : unit -> (float * float) Cell.row list;  (** (ESP, success) of Figure 12's cells *)
  scaling : string list list Lazy.t;  (** table rows; the compiles are cold *)
  related : unit -> int Cell.row list;
  mapper : (string * Layout.Report.t * Layout.Report.t * Layout.Report.t) list Lazy.t;
  peephole : unit -> (string * int * int) list;
  iontrap : unit -> float Cell.row list;
  tannu : unit -> (int * float * float) list;
  coherence : unit -> (string * (int * int * float * float * float)) list;
  characterize : string list list Lazy.t;  (** table rows *)
  routing : unit -> float Cell.row list;
  staleness : unit -> (int * float * float) list;
  lookahead : unit -> (string * (int * float) * (int * float)) list;
  summary : string list list Lazy.t;  (** rows of (metric, paper, measured) *)
  properties : unit -> (string * string list list) list;  (** rows per machine *)
  heavyhex : unit -> float Cell.row list;
  variability : unit -> (string * float list) list;
  parametric : unit -> (string * string * int * float * int * float) list;
  noise_model : unit -> (string * float * float) list;
  ghz : unit -> (string * float) list;
}

(** [generate run] renders figures 1, 3 and 8–12, the scaling study, the
    headline summary and three extensions of [run] as one markdown
    document. The run must plan the cell grids it reads (the ["report"]
    entry of {!Experiments.sections} names them); a second call on the
    same run compiles and simulates nothing. *)
val generate : run -> string
