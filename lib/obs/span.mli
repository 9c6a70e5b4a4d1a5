(** Hierarchical wall-clock spans with a thread-safe in-memory sink.

    A span is one timed region of work — a compiler pass, a trajectory
    block, a whole compile — with key/value attributes and a parent
    link. Nesting is tracked {e per domain} (an OCaml 5 [Domain.DLS]
    stack of open spans), so work fanned out across a
    {!Parallel.Pool} records correctly-parented spans without
    cross-domain interleaving corruption; finished spans are appended to
    one process-wide sink under a mutex.

    Recording is off by default. When disabled, {!with_span} is a single
    atomic load and a direct call of the body — no clock read, no
    allocation — so instrumentation can stay permanently in hot paths
    ([triqc] only flips it on under [--trace]). {!timed} is the
    exception: it {e always} measures (its contract is to return the
    duration) and records a span only when enabled — the pass driver
    uses it so [pass_times_s] is the same measurement the trace shows.

    Naming convention (see docs/OBSERVABILITY.md): lowercase
    dot-separated segments, [layer.operation] — ["compile"],
    ["pass.routing"], ["sim.block"]. *)

(** Attribute values. *)
type attr = Str of string | Int of int | Float of float | Bool of bool

type t = {
  id : int;  (** unique within the process, allocation order *)
  parent : int option;  (** innermost open span on the same domain *)
  name : string;
  domain : int;  (** domain that ran the span ([Domain.self]) *)
  start_ns : int64;  (** {!Clock.now_ns} at entry *)
  dur_ns : int64;  (** duration, never negative *)
  attrs : (string * attr) list;
}

(** {1 The sink} *)

val enabled : unit -> bool

(** [enable ()] starts recording into the in-memory sink (idempotent). *)
val enable : unit -> unit

(** [disable ()] stops recording. Already-collected spans are kept;
    spans open at the moment of the flip still record on exit so the
    sink never holds an unbalanced stack. *)
val disable : unit -> unit

(** Drop all collected spans (the id counter keeps running). *)
val reset : unit -> unit

(** Snapshot of finished spans, sorted by [(start_ns, id)]. *)
val collected : unit -> t list

(** {1 Recording} *)

(** [with_span ?attrs name f] runs [f ()]; when enabled, records a span
    around it (also on exception). The no-op path when disabled is one
    atomic load. *)
val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a

(** [timed ?attrs ?result_attrs name f] is [with_span] that additionally
    returns [f]'s wall-clock seconds, measured whether or not the sink is
    enabled — and when it is, the recorded span's [dur_ns] is exactly the
    same measurement ([dur_ns = seconds *. 1e9] up to float rounding).
    [result_attrs] derives further attributes from [f]'s result (e.g. the
    work a solver did); it runs only when the span is recorded. *)
val timed :
  ?attrs:(string * attr) list ->
  ?result_attrs:('a -> (string * attr) list) ->
  string ->
  (unit -> 'a) ->
  'a * float
