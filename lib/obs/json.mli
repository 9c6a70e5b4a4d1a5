(** The repository's one JSON value type, reader and writer (no external
    dependency). Machine descriptions, trace exporters, the metrics dump,
    the CLI envelope ({!Output}), diagnostics, fuzz reports and the bench
    harness all build and read [t].

    Writing is deterministic: object members print in the order given,
    every byte below 0x20 in a string is escaped, floats use the shortest
    of [%.12g] … [%.17g] that parses back to the same double (integral
    values print without a dot), and non-finite floats become [null]
    (JSON has no representation for them).

    Reading accepts RFC 8259 JSON: all string escapes ([\uXXXX] decoded
    to UTF-8, surrogate pairs combined), and nesting up to 512 arrays or
    objects deep. Integer literals (no fraction, no exponent) that fit an
    [int] read as [Int]; every other number reads as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty v] serializes [v]; [pretty] (default false)
    pretty-prints with 2-space indentation, otherwise the output is
    compact single-line JSON. *)
val to_string : ?pretty:bool -> t -> string

exception Parse_error of string * int
(** [Parse_error (message, offset)]: the byte offset where reading
    stopped. Raised on malformed input, a lone surrogate, an unescaped
    control byte in a string, or nesting deeper than 512. *)

val parse : string -> t

(** Accessors: raise [Invalid_argument] naming the member or the expected
    type on a mismatch. [to_float] accepts [Int] and [Float]; [to_int]
    accepts [Int] and integral [Float]s, so ["qubits": 5.0] reads as 5. *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
