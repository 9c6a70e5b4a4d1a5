(** Process-wide metrics registry: named counters, gauges, and log-scale
    histograms, safe to update concurrently from {!Parallel.Pool}
    domains.

    Counters are [Atomic] integer adds and gauges [Atomic] float stores,
    cheap enough to stay unconditionally live (the B&B search counts its
    nodes whether or not anyone reads them). The {!enabled}
    gate exists for instrumentation whose {e measurement} has a cost —
    the pool's queue-wait and busy histograms each need clock reads, so
    they only record when metrics are switched on (e.g. by
    [triqc metrics] or the bench harness).

    Histograms bucket by powers of two: bucket [i] covers
    [(2^(i-1), 2^i]] with bucket [0] absorbing everything [<= 1] and the
    last bucket open-ended. With {!n_buckets}[ = 64] that spans a
    nanosecond to ~290 years when observations are nanoseconds — one
    fixed shape for every histogram, so merging and rendering need no
    per-metric configuration.

    Naming convention (see docs/OBSERVABILITY.md): dot-separated
    [layer.component.metric], e.g. ["sim.trajectories.erred"],
    ["parallel.pool.queue_wait_ns"]; unit suffix ([_ns], [_bytes]) when
    the value has one. Registering the same name twice returns the same
    metric; reusing a name at a different type raises [Invalid_argument]. *)

type counter
type gauge
type histogram

(** {1 Registration (register-or-get, process-wide)} *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Updates} *)

(** [incr ?by c] adds [by] (default 1) to [c]. *)
val incr : ?by:int -> counter -> unit

val set : gauge -> float -> unit

(** [observe h v] adds [v] to histogram [h] (count, sum, bucket). *)
val observe : histogram -> float -> unit

(** {1 Gating for costly instrumentation} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Reading} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      buckets : (float * int) list;
          (** [(upper_bound, count)] for non-empty buckets only, ascending;
              the open-ended last bucket reports [infinity]. *)
    }

(** Snapshot of every registered metric, sorted by name. *)
val dump : unit -> (string * value) list

(** Zero every registered metric (names stay registered). *)
val reset : unit -> unit

(** {1 Bucket geometry (exposed for tests and exporters)} *)

val n_buckets : int

(** [bucket_index v] is the bucket [v] falls into; NaN and negatives go
    to bucket 0, [infinity] to the last. *)
val bucket_index : float -> int

(** [bucket_upper i] is the inclusive upper bound of bucket [i]
    ([2^i]; [infinity] for the last bucket). *)
val bucket_upper : int -> float
