(** Structured compiler diagnostics.

    Every static check in the toolflow reports through this one type
    instead of ad-hoc exceptions: a diagnostic names the violated rule
    (stable ids, catalogued in docs/ANALYSIS.md), the toolflow layer that
    produced it, where in the program or circuit it points, and a human
    message. The rendering is uniform across [triqc] subcommands, and
    [to_json] gives a machine-readable {!Obs.Json.t} for tooling. *)

type severity = Error | Warning | Info

(** Where a diagnostic points. [Line] is a source (Scaffold) line;
    [Gate] an index into a circuit's gate list; [Qubit]/[Pair] hardware
    or program qubits. *)
type loc =
  | Nowhere
  | Line of int
  | Gate of int
  | Qubit of int
  | Pair of int * int

type t = {
  severity : severity;
  rule : string;  (** stable rule id, e.g. ["topo.coupling"] *)
  layer : string;  (** pass or layer that raised it, e.g. ["routing"] *)
  loc : loc;
  message : string;
}

val make : ?severity:severity -> ?loc:loc -> rule:string -> layer:string -> string -> t

(** [errorf ~rule ~layer ?loc fmt ...] builds an [Error] diagnostic with a
    printf-formatted message. *)
val errorf :
  rule:string -> layer:string -> ?loc:loc -> ('a, unit, string, t) format4 -> 'a

(** [warnf] is {!errorf} at [Warning] severity. *)
val warnf :
  rule:string -> layer:string -> ?loc:loc -> ('a, unit, string, t) format4 -> 'a

(** [infof] is {!errorf} at [Info] severity. *)
val infof :
  rule:string -> layer:string -> ?loc:loc -> ('a, unit, string, t) format4 -> 'a

val severity_name : severity -> string
val loc_string : loc -> string

(** One-line human rendering:
    [error\[topo.coupling\] routing @ gate 12: CNOT q3-q7 not coupled]. *)
val render : t -> string

val pp : Format.formatter -> t -> unit

(** Machine-readable rendering: one JSON object with [severity], [rule],
    [layer], [loc] and [message]. *)
val to_json : t -> Obs.Json.t

(** Sort severity-first (errors before warnings), then rule id, then
    location — a deterministic report order. *)
val compare : t -> t -> int

val is_error : t -> bool
val has_errors : t list -> bool
val error_count : t list -> int

(** [Violation (pass, diags)] is raised by the pass-invariant harness
    ([Triq.Pass.Config.validate] = [Shape] or [Deep]) when [pass] breaks a
    well-formedness invariant; [diags] are the violated rules. *)
exception Violation of string * t list

(** Render a violation as a multi-line report attributing the pass. *)
val violation_message : string -> t list -> string

(** [invalid ~rule ~layer ?loc fmt ...] raises [Invalid_argument] whose
    message is the uniform {!render}ing of the diagnostic — the bridge for
    the toolflow's precondition failures, keeping the historical exception
    type while normalizing the text. *)
val invalid :
  rule:string -> layer:string -> ?loc:loc -> ('a, unit, string, 'b) format4 -> 'a
