(** The 2Q reliability matrix (Section 4.2, Figure 6).

    Entry (c, t) estimates the end-to-end reliability of performing a 2Q
    operation from qubit [c] to qubit [t], including the SWAP routing
    needed to co-locate them: TriQ finds, over all neighbours [t'] of [t],
    the maximum of (most reliable swap-path reliability from [c] to [t'])
    x (2Q gate reliability of the [t'-t] coupling). Swap-path reliability
    is the product over hops of (edge reliability)^3, one factor per CNOT
    of the 3-CNOT swap. The all-pairs swap computation is the
    Floyd-Warshall pass the paper describes.

    In noise-aware mode every coupling uses its calibrated error rate; in
    noise-unaware mode every coupling uses the device-average error, which
    reduces the computation to hop-count minimization. *)

type t

(** [of_calibration ~noise_aware topology calibration] builds the matrix
    for one day's calibration. The reliability pass calls it on every
    compile: a compile is a function of (machine, program, schedule,
    config) and keeps no state between calls. *)
val of_calibration :
  noise_aware:bool -> Device.Topology.t -> Device.Calibration.t -> t

(** [cache_clear ()] does nothing: the matrix is not cached. It stays for
    callers that clear every cache before a cold run, next to
    [Placement.cache_clear]. *)
val cache_clear : unit -> unit

val n_qubits : t -> int

(** [score t c t'] is the end-to-end 2Q reliability estimate in [0, 1];
    0 when unreachable, and undefined (0) on the diagonal. *)
val score : t -> int -> int -> float

(** [edge_reliability t a b] is the direct coupling reliability used for
    edge [{a,b}]; raises [Not_found] when uncoupled. *)
val edge_reliability : t -> int -> int -> float

(** [swap_path t c tgt] is the hardware-qubit path [c; ...; t'] along
    which SWAPs realize the best 2Q between [c] and [tgt]: [t'] is the
    chosen best neighbour of [tgt] ([t' = c] and a singleton path when
    they are already coupled). Raises [Not_found] when unreachable. *)
val swap_path : t -> int -> int -> int list

(** [swap_reliability t a b] is the best swap-path reliability from [a] to
    [b] (1.0 when [a = b]). *)
val swap_reliability : t -> int -> int -> float

(** [path_between t a b] is the max-product swap path [a; ...; b] realizing
    [swap_reliability t a b]; raises [Not_found] when unreachable. *)
val path_between : t -> int -> int -> int list

(** [readout_reliability t q] is 1 - readout error of [q]. *)
val readout_reliability : t -> int -> float

(** [pp] prints the matrix in the layout of Figure 6. *)
val pp : Format.formatter -> t -> unit
