(** Machine descriptions as data.

    The paper's central design move is that device characteristics —
    topology, gate interface, error profile — are *inputs* to the
    compiler, not code. This module serializes machine descriptions to a
    JSON document so downstream users can target their own device with
    `triqc --machine-file device.json` and no recompilation:

    {v
    {
      "name": "MyDevice",
      "interface": "ibm" | "rigetti" | "umd",
      "qubits": 5,
      "directed": true,
      "edges": [[1, 0], [2, 0]],
      "seed": 1234,
      "profile": {
        "one_q_err": 0.002,  "two_q_err": 0.048,  "readout_err": 0.062,
        "coherence_us": 40.0, "one_q_time_us": 0.05, "two_q_time_us": 0.3,
        "spatial_sigma": 0.45, "temporal_sigma": 0.3
      }
    }
    v}

    Documents are read with {!Obs.Json.parse}: any RFC 8259 JSON text
    (all string escapes, [\uXXXX] included) nested at most 512 arrays or
    objects deep; deeper input fails at once with {!Error}. Integer
    members ([qubits], [edges], [seed]) also accept integral floats such
    as [5.0]. A device may have at most [Ir.Circuit.max_qubits] qubits,
    the frontends' register bound; a larger [qubits] fails with {!Error}
    before its topology is built. {!to_string} escapes every control
    byte, so its output is read back by any JSON parser.

    The optional per-coupling error scaling of large ion traps is not
    representable in a data file (it is a function); such machines are
    constructed in code. *)

exception Error of string
(** Malformed description: JSON syntax (["JSON error at offset N: ..."]),
    missing/ill-typed members, or invalid values. *)

val to_json : Machine.t -> Obs.Json.t
val of_json : Obs.Json.t -> Machine.t

(** [of_string s] parses and validates a JSON description. *)
val of_string : string -> Machine.t

val to_string : Machine.t -> string

(** [of_file path] loads a description from disk. *)
val of_file : string -> Machine.t
