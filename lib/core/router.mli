(** Gate and communication scheduling (Section 4.4): the one routing
    walker and the SWAP strategies it runs.

    {!run} consumes gates in the IR's (topologically sorted) program order
    under a live program-to-hardware mapping. 1Q gates and measurements
    follow the mapping, and a 2Q gate whose operands already sit on
    coupled hardware qubits is emitted as is. Only a 2Q gate whose
    operands are apart is handed to a {!strategy}, which inserts SWAPs
    with {!swap} or {!walk}, updating the mapping for every later gate,
    and ends with {!gate}.

    Every router is such a strategy: the paper's ({!route}), the
    lookahead extension ({!route_lookahead}), and the Qiskit-like and
    Quil-like baselines ([Baselines.Qiskit_like], [Baselines.Quil_like]).
    On fully-connected machines (UMDTI) no strategy is ever called. *)

type result = {
  circuit : Ir.Circuit.t;
      (** hardware-qubit circuit; 2Q gates only on coupled pairs, SWAPs
          kept explicit for later expansion *)
  final_placement : int array;  (** program qubit -> hardware qubit at exit *)
  swap_count : int;
}

(** {1 The walker} *)

(** The live routing state: the program-to-hardware mapping and its
    inverse, the gates emitted so far and the SWAP count. *)
type t

(** [position t p] is the hardware qubit program qubit [p] occupies now. *)
val position : t -> int -> int

(** [coupled t a b] is true when program qubits [a] and [b] occupy
    coupled hardware qubits. *)
val coupled : t -> int -> int -> bool

(** [swap t u v] emits a SWAP on hardware qubits [u] and [v] and exchanges
    the program qubits they hold (either may be empty). *)
val swap : t -> int -> int -> unit

(** [walk t ~mover a b path] swaps program qubit [mover] (one of [a] and
    [b]) along the hardware path [path], which starts at its position. It
    stops as soon as [a] and [b] are coupled, which may be before the end
    of [path] (the path may run through the other operand's location). *)
val walk : t -> mover:int -> int -> int -> int list -> unit

(** [gate t kind a b] emits the 2Q gate [kind] on program qubits [a] and
    [b] at their current hardware qubits. Raises [Invalid_argument]
    (rule [topo.coupling]) if they are still apart. *)
val gate : t -> Ir.Gate.two_q -> int -> int -> unit

(** A SWAP strategy. [strategy t ~index kind a b] is called for the 2Q
    gate [kind] on program qubits [a] and [b], the [index]-th gate of the
    circuit, only when [a] and [b] are apart; it must end with
    [gate t kind a b]. *)
type strategy = t -> index:int -> Ir.Gate.two_q -> int -> int -> unit

(** [run strategy topology ~placement c] routes the flattened program
    circuit [c] (1Q + 2Q + measure over program qubits) onto [topology],
    starting from [placement] (program qubit -> hardware qubit). Raises
    [Invalid_argument] with rule [exec.placement] if [placement] is not
    injective or maps outside the machine, and with rule [circuit.flat]
    if [c] still holds Toffoli or Fredkin gates. *)
val run : strategy -> Device.Topology.t -> placement:int array -> Ir.Circuit.t -> result

(** {1 Strategies} *)

(** [route reliability topology ~placement c] is the paper's router: the
    control walks along the most reliable swap path recorded in the
    reliability matrix ({!Reliability.swap_path}) toward the target. *)
val route :
  Reliability.t -> Device.Topology.t -> placement:int array -> Ir.Circuit.t -> result

(** [route_lookahead reliability topology ~placement c] is the lookahead
    extension. {!route} commits, for each 2Q gate in isolation, to the
    reliability-optimal path moving the control. This strategy considers
    moving either operand toward any neighbour of the other along
    max-product paths, and scores each candidate by the immediate gate's
    reliability times the reliability the next 4 upcoming 2Q gates would
    see under the post-swap mapping. Picking a marginally worse path now
    can leave frequently-interacting qubits better placed for what
    follows. Compared against {!route} by the [lookahead] ablation. *)
val route_lookahead :
  Reliability.t -> Device.Topology.t -> placement:int array -> Ir.Circuit.t -> result
