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
    {!bernoulli_hits} compares against: [ceil (p * 2^53)] for [p] in
    (0, 1), [2^53] for [p >= 1], and 0 for [p <= 0] or NaN. *)
val threshold : float -> int

(** [bernoulli_hits t ids thresholds hits] makes one independent draw
    per entry [j], in order, that hits with probability
    [thresholds.(j)] / 2^53; it writes the [ids.(j)] of the hits, in
    order, to the front of [hits] and returns their count. When [ids]
    lists, ascending, the gates whose [threshold p] is positive, the
    hits and the stream state after them are exactly those of [p > 0.0
    && bool t p] over all the gates, draw for draw. Allocates nothing.
    Raises [Invalid_argument] unless [thresholds] is as long as [ids]
    and [hits] at least as long. *)
val bernoulli_hits : t -> int array -> int array -> int array -> int

(** [gaussian t] is a standard normal deviate (Box-Muller). *)
val gaussian : t -> float

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t l] picks a uniform element of the non-empty list [l]. *)
val choose : t -> 'a list -> 'a
