(** One bench run's data, and its live markdown report.

    A {!run} holds every experiment's data for one process, one lazy grid
    per experiment. {!Experiments.run} builds it, {!Experiments.sections}
    renders it as text tables, and {!generate} renders the same grids as
    markdown: the machine-written counterpart of the hand-annotated
    EXPERIMENTS.md, printed by [dune exec bench/main.exe report]. The type
    is defined here, ahead of {!Experiments}, because the report is one of
    those sections; the one-domain rule for forcing it is stated at
    {!Experiments.run}. *)

type run = {
  fig1 : string list list Lazy.t;  (** one row per machine *)
  fig3 : ((int * int) * float list) list Lazy.t;  (** 26 days per IBMQ14 coupling *)
  fig8 : (string * int Cell.row list) list Lazy.t;  (** 1Q pulses per machine *)
  fig9 : (string * float Cell.row list) list Lazy.t;  (** success per machine *)
  fig10_counts : (string * int Cell.row list) list Lazy.t;  (** 2Q counts per machine *)
  fig10_success : float Cell.row list Lazy.t;
  fig11_ibm : (int * float) Cell.row list Lazy.t;  (** (2Q count, success) on IBMQ14 *)
  fig11_rigetti : (string * float Cell.row list) list Lazy.t;  (** success per machine *)
  fig11_sequences : (string * float Cell.row list) list Lazy.t;  (** success per series *)
  fig12 : (float * float) Cell.row list Lazy.t;  (** (ESP, success) *)
  scaling : string list list Lazy.t;  (** table rows; the compiles are cold *)
  related : int Cell.row list Lazy.t;
  mapper : (string * Layout.Report.t * Layout.Report.t * Layout.Report.t) list Lazy.t;
  peephole : (string * int * int) list Lazy.t;
  iontrap : float Cell.row list Lazy.t;
  tannu : (int * float * float) list Lazy.t;
  coherence : (string * (int * int * float * float * float)) list Lazy.t;
  characterize : string list list Lazy.t;  (** table rows *)
  routing : float Cell.row list Lazy.t;
  staleness : (int * float * float) list Lazy.t;
  lookahead : (string * (int * float) * (int * float)) list Lazy.t;
  summary : string list list Lazy.t;  (** rows of (metric, paper, measured) *)
  properties : (string * string list list) list Lazy.t;  (** rows per machine *)
  heavyhex : float Cell.row list Lazy.t;
  variability : (string * float list) list Lazy.t;
  parametric : (string * string * int * float * int * float) list Lazy.t;
  noise_model : (string * float * float) list Lazy.t;
  ghz : (string * float) list Lazy.t;
}

(** [generate run] renders figures 1, 3 and 8–12, the scaling study, the
    headline summary and three extensions of [run] as one markdown
    document. It forces only those grids; a second call on the same run
    compiles and simulates nothing. *)
val generate : run -> string
