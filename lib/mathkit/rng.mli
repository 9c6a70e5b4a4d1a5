(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every stochastic component of the toolflow (calibration drift, noise
    trajectories, stochastic swap search) draws from an explicit generator so
    that experiments are reproducible run-to-run. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)
val split : t -> t

(** [int64 t] is the next raw 64-bit output. *)
val int64 : t -> int64

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** [threshold p] is the integer form of the probability [p] that
    {!bernoulli_flags} compares against: [ceil (p * 2^53)] for [p] in
    (0, 1), [2^53] for [p >= 1], and 0 for [p <= 0] or NaN. *)
val threshold : float -> int

(** [bernoulli_flags t thresholds flags] sets [flags.(i)] to an
    independent draw that is [true] with probability [thresholds.(i)]
    / 2^53 and returns whether any flag is set. A zero threshold sets
    the flag to [false] without drawing. For [thresholds.(i) =
    threshold p] each flag, and the stream state after it, is exactly
    that of [p > 0.0 && bool t p], draw for draw. Allocates nothing.
    Raises [Invalid_argument] unless both arrays have the same
    length. *)
val bernoulli_flags : t -> int array -> bool array -> bool

(** [gaussian t] is a standard normal deviate (Box-Muller). *)
val gaussian : t -> float

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t l] picks a uniform element of the non-empty list [l]. *)
val choose : t -> 'a list -> 'a
