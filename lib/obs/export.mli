(** Render collected spans and metric snapshots — pure functions over
    {!Span.t} lists and {!Metrics.dump} snapshots, so they are trivially
    testable and never touch the live sink.

    Three span formats:
    - {!text_tree} — indented human-readable tree for terminals;
    - {!jsonl} — one JSON object per span per line, for [jq]/scripts;
    - {!chrome} — a single Chrome [trace_event] JSON document
      ([{"traceEvents": [...]}], complete ["X"] events, microsecond
      timestamps, [tid] = domain id) that loads directly in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

type format = [ `Chrome | `Jsonl | `Text ]

(** Parse a [--trace-format] value: ["chrome"], ["jsonl"], ["text"]. *)
val format_of_string : string -> format option

(** {1 Span exporters} *)

(** Indented tree (children nested under parents, siblings in start
    order); durations in milliseconds. Orphan spans (parent not in the
    list) print at top level. *)
val text_tree : Span.t list -> string

(** One compact JSON object per line:
    [{"id","parent","name","domain","start_ns","dur_ns","attrs"}]. *)
val jsonl : Span.t list -> string

(** Chrome [trace_event] document; timestamps are microseconds relative
    to the earliest span so traces open near [t=0]. *)
val chrome : Span.t list -> string

(** [render fmt spans] dispatches on [fmt]. *)
val render : format -> Span.t list -> string

(** {1 Metrics exporters} *)

(** Deterministic plain text, one metric per line ([name TYPE value]);
    histograms show [count], [sum], and non-empty buckets. *)
val metrics_text : (string * Metrics.value) list -> string

(** JSON object keyed by metric name; histograms become
    [{"count","sum","buckets":[[upper,count],...]}] with the open-ended
    bucket's bound rendered as the string ["+inf"]. *)
val metrics_json : (string * Metrics.value) list -> Json.t
