(** The one caching discipline for process-global state: a bounded,
    mutex-guarded, exact-LRU memo table. Every cache in [lib/] is an
    instance of {!Make} with a fixed capacity; lookup, insert and eviction
    are O(1) (a hash table plus a recency list) and hold the instance's
    mutex, so pool workers may share an instance.

    A missing value is computed {e outside} the lock. When two domains
    miss on the same key at once, both compute; the first to store wins
    and the other returns the stored value, so each resident key maps to
    one physical value.

    [create ~name] registers the cumulative counters [<name>.hits],
    [<name>.misses] and [<name>.evictions] (LRU evictions plus entries
    dropped by [clear]); [stats] counts the current generation only. *)

type stats = {
  hits : int;
  misses : int;  (** every call is exactly one hit or one miss *)
  evictions : int;  (** LRU evictions since the last clear *)
  size : int;  (** resident entries, never above the capacity *)
}

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  (** Raises [Invalid_argument] unless [capacity] is positive. *)
  val create : name:string -> capacity:int -> 'a t

  (** [find_or_add t key compute] returns the value resident for [key],
      marking it most recently used, or stores and returns [compute ()],
      evicting the least recently used entry at capacity. An exception
      from [compute] propagates and stores nothing. *)
  val find_or_add : 'a t -> K.t -> (unit -> 'a) -> 'a

  (** Drops every entry and starts a new stats generation. *)
  val clear : 'a t -> unit

  val stats : 'a t -> stats
end
