(** Qubit connectivity graphs.

    Nodes are hardware qubits; edges are hardware-supported two-qubit
    interactions. IBM's cross-resonance CNOTs are *directed* (the edge
    records the hardware control direction); Rigetti CZ and UMD XX are
    symmetric, recorded here as a single undirected edge. Routing treats
    all edges as undirected — direction mismatches are repaired later with
    extra one-qubit gates. *)

type t

(** [create n edges ~directed] builds a topology over qubits [0..n-1].
    Edges must connect distinct in-range qubits; duplicates (in either
    orientation) are rejected. *)
val create : int -> (int * int) list -> directed:bool -> t

val n_qubits : t -> int

(** [directed t] is true when edge orientation is architecturally
    meaningful (IBM). *)
val directed : t -> bool

(** [edges t] lists edges as created (oriented for directed topologies). *)
val edges : t -> (int * int) list

(** [edge_count t] is the number of physical couplings. *)
val edge_count : t -> int

(** [coupled t a b] is true when a 2Q gate can be applied between [a] and
    [b] in either orientation. *)
val coupled : t -> int -> int -> bool

(** [has_directed_edge t a b] is true when the hardware natively supports
    the gate with control [a], target [b]. On undirected topologies this
    equals [coupled]. *)
val has_directed_edge : t -> int -> int -> bool

(** [neighbors t q] lists qubits coupled to [q], ascending. *)
val neighbors : t -> int -> int list

(** [degree t q] is [List.length (neighbors t q)]. *)
val degree : t -> int -> int

(** [is_connected t] checks the coupling graph is one component. *)
val is_connected : t -> bool

(** [distances t src] is the hop distance from [src] to every qubit ([0]
    at [src], [-1] where unreachable), from one breadth-first search. *)
val distances : t -> int -> int array

(** [hop_distance t a b] is [(distances t a).(b)]: the minimum number of
    couplings between [a] and [b] (0 when equal); raises [Not_found] if
    disconnected. *)
val hop_distance : t -> int -> int -> int

(** [shortest_path t a b] is a minimal-hop qubit path [a; ...; b]. *)
val shortest_path : t -> int -> int -> int list

(** [is_fully_connected t] is true when every qubit pair is coupled. *)
val is_fully_connected : t -> bool

(** Builders for standard shapes. *)
val line : int -> t

val ring : int -> t
val fully_connected : int -> t

(** [grid rows cols] is a rows x cols nearest-neighbour lattice. *)
val grid : int -> int -> t

(** [heavy_hex distance] is an IBM-style heavy-hexagon fragment built
    from [distance] hexagonal cells in a row: degree <= 3 everywhere,
    alternating vertex and edge qubits — the topology IBM moved to after
    the paper's lattice machines. *)
val heavy_hex : int -> t

(** [diameter t] is the maximum hop distance over all pairs; raises
    [Not_found] when disconnected. *)
val diameter : t -> int

(** [average_distance t] is the mean hop distance over distinct pairs. *)
val average_distance : t -> float

val pp : Format.formatter -> t -> unit
