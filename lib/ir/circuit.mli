(** Quantum circuits: an ordered gate list over [n_qubits] qubits.

    Program order is execution order; the dependency structure used for
    scheduling is derived by {!Dag}. *)

type t = private { n_qubits : int; gates : Gate.t list }

(** The most qubits a program may declare: above every bundled or extended
    machine (the largest is the 72-qubit Bristlecone grid). *)
val max_qubits : int

(** [check_register ~layer ~line ~used name size] raises the
    [circuit.bounds] {!Diag} when a register [name[size]] declared after
    [used] others would pass {!max_qubits}. The frontends call it where a
    register is declared, before any per-qubit work. *)
val check_register : layer:string -> line:int -> used:int -> string -> int -> unit

(** The most gates a frontend may expand a program into: far above every
    bundled and generated circuit (the 72-qubit scaling circuits hold about
    10{^4}). A gate-definition or module call and a loop iteration count as
    one each, so an expansion that emits nothing is bounded too. *)
val max_gates : int

(** [check_gates ~layer ~line count] raises the [circuit.bounds] {!Diag}
    when [count] expansion steps pass {!max_gates}. The frontends call it
    each time they emit a gate, expand a call or unroll a loop iteration. *)
val check_gates : layer:string -> line:int -> int -> unit

(** [create n gates] validates that every gate's operands lie in
    [\[0, n)] and are distinct, raising [Invalid_argument] otherwise. *)
val create : int -> Gate.t list -> t

(** [empty n] is the circuit with no gates. *)
val empty : int -> t

(** [append c gates] adds gates at the end (validated). *)
val append : t -> Gate.t list -> t

(** [concat a b] runs [a] then [b]; both must have the same qubit count. *)
val concat : t -> t -> t

(** [map_qubits ~n_qubits f c] renames qubits through [f] into a circuit
    over [n_qubits] qubits. *)
val map_qubits : n_qubits:int -> (int -> int) -> t -> t

(** [gate_count c] is the total number of operations, including measures. *)
val gate_count : t -> int

(** [one_q_count c] counts [One _] gates. *)
val one_q_count : t -> int

(** [two_q_count c] counts [Two _] gates ([Ccx]/[Cswap] are not counted;
    decompose first). *)
val two_q_count : t -> int

(** [measure_count c] counts readout operations. *)
val measure_count : t -> int

(** [used_qubits c] is the sorted list of qubits touched by any gate. *)
val used_qubits : t -> int list

(** [measured_qubits c] is the sorted list of qubits that are measured. *)
val measured_qubits : t -> int list

(** [body c] is [c] without its measure operations. *)
val body : t -> t

(** [measure_all c qs] appends measurement of each qubit in [qs]. *)
val measure_all : t -> int list -> t

(** [compact c] renumbers the used qubits densely from 0, returning the
    compacted circuit and the mapping [old_qubit -> new_qubit] as an
    association list. Simulation uses this so a 5-qubit program mapped onto
    a 16-qubit device only simulates the qubits it touches. *)
val compact : t -> t * (int * int) list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
