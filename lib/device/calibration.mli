(** Calibration data: per-qubit and per-edge error rates with spatial and
    temporal (daily) variation.

    Real systems publish fresh calibration data after every calibration
    cycle (IBM: twice a day, Figure 3). We model each machine's published
    numbers as draws from a seeded log-normal drift process around the
    average rates of Figure 1: every qubit/edge gets a static spatial
    factor, and every day multiplies in a fresh temporal factor. The same
    seed always reproduces the same calibration history. *)

(** Average device characteristics and drift magnitudes. Error rates are
    probabilities in [0,1]; times are microseconds. *)
type profile = {
  avg_one_q_err : float;
  avg_two_q_err : float;
  avg_readout_err : float;
  coherence_us : float;
  one_q_time_us : float;
  two_q_time_us : float;
  spatial_sigma : float;  (** log-normal sigma across qubits/edges *)
  temporal_sigma : float;  (** log-normal sigma across days *)
  two_q_scale : (int * int -> float) option;
      (** optional per-coupling multiplier on the average 2Q error; used to
          model larger ion traps, where interaction strength falls (and
          error grows) with the distance between ions (Section 6.3) *)
}

(** A calibration snapshot for one day. *)
type t = private {
  day : int;
  one_q : float array;  (** per-qubit 1Q gate error *)
  two_q : ((int * int) * float) list;  (** per-coupling 2Q error, normalized pairs *)
  readout : float array;  (** per-qubit readout error *)
  row_start : int array;
      (** [two_q] as per-qubit neighbour rows: qubit [a]'s couplings are
          entries [row_start.(a)] to [row_start.(a + 1) - 1] of the two
          arrays below, in [two_q]'s order *)
  neighbours : int array;  (** the other end of each row entry *)
  neighbour_err : float array;  (** each row entry's 2Q error *)
}

(** [generate ~seed ~day topology profile] is the snapshot published on
    [day]. Snapshots for the same seed/day are identical; different days
    drift around the profile averages. *)
val generate : seed:int -> day:int -> Topology.t -> profile -> t

(** [explicit ~day ~one_q ~two_q ~readout] builds a snapshot directly —
    used for the paper's worked example (Figure 6) and for tests. Error
    values must be in [0, 1] and each coupling two distinct non-negative
    qubits; raises [Invalid_argument] otherwise. *)
val explicit :
  day:int ->
  one_q:float array ->
  two_q:((int * int) * float) list ->
  readout:float array ->
  t

(** [one_q_err t q] is the 1Q error of qubit [q]. *)
val one_q_err : t -> int -> float

(** [two_q_err t a b] is the 2Q error of coupling [{a,b}] (the first
    entry of [two_q] for it), found in O(degree of [a]); raises
    [Not_found] for uncoupled pairs. *)
val two_q_err : t -> int -> int -> float

(** [readout_err t q] is the readout error of qubit [q]. *)
val readout_err : t -> int -> float

(** [average_two_q_err t] is the mean over all couplings — what a
    noise-unaware reliability matrix uses for every edge. *)
val average_two_q_err : t -> float

(** [average_readout_err t] is the mean readout error. *)
val average_readout_err : t -> float
