(** Plain-text table rendering for the experiment harness. Columns are
    sized to their widest cell; numeric helpers format the way the paper's
    plots label values. *)

(** [render ~header rows] lays out an aligned table with a separator under
    the header. All rows must have the header's arity. *)
val render : header:string list -> string list list -> string

(** [print ~title ~header rows] renders with a title line to stdout. *)
val print : title:string -> header:string list -> string list list -> unit

(** [f2 x] formats to 2 decimals; [f3 x] to 3. *)
val f2 : float -> string

val f3 : float -> string

(** [opt_f2 v] formats [Some x] as [f2 x] and [None] as ["X"] — the
    paper's marker for benchmarks too large for a machine. *)
val opt_f2 : float option -> string

(** [opt_int v] formats [Some n] as decimal and [None] as ["X"]. *)
val opt_int : int option -> string

(** [row_table to_string rows] is the header and body of a per-benchmark
    table: a ["Benchmark"] column, then one column per series of the
    first row, each cell formatted with [to_string]. Text tables
    ({!render}) and markdown ones ({!markdown}) both lay it out. *)
val row_table : ('a option -> string) -> 'a Cell.row list -> string list * string list list

(** [markdown ~header rows] renders a GitHub-flavoured markdown table. *)
val markdown : header:string list -> string list list -> string
