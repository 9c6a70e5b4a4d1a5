type stats = { hits : int; misses : int; evictions : int; size : int }

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  (* The recency list, newest first. Nodes are inline records, so a
     link costs no allocation beyond its node. *)
  type 'a link =
    | Nil
    | Node of { key : K.t; value : 'a; mutable newer : 'a link; mutable older : 'a link }

  type 'a t = {
    capacity : int;
    table : 'a link H.t;
    mutex : Mutex.t;
    mutable newest : 'a link;
    mutable oldest : 'a link;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    obs_hits : Obs.Metrics.counter;
    obs_misses : Obs.Metrics.counter;
    obs_evictions : Obs.Metrics.counter;
  }

  let create ~name ~capacity =
    if capacity <= 0 then invalid_arg "Parallel.Memo.create: capacity must be positive";
    let counter suffix = Obs.Metrics.counter (name ^ "." ^ suffix) in
    {
      capacity;
      table = H.create (min capacity 64);
      mutex = Mutex.create ();
      newest = Nil;
      oldest = Nil;
      hits = 0;
      misses = 0;
      evictions = 0;
      obs_hits = counter "hits";
      obs_misses = counter "misses";
      obs_evictions = counter "evictions";
    }

  (* The list operations run with [t.mutex] held, on [Node]s only. *)
  let unlink t = function
    | Nil -> ()
    | Node n ->
      (match n.newer with Node m -> m.older <- n.older | Nil -> t.newest <- n.older);
      (match n.older with Node m -> m.newer <- n.newer | Nil -> t.oldest <- n.newer);
      n.newer <- Nil;
      n.older <- Nil

  let push_newest t = function
    | Nil -> ()
    | Node n as node ->
      n.older <- t.newest;
      (match t.newest with Node m -> m.newer <- node | Nil -> t.oldest <- node);
      t.newest <- node

  let touch t node =
    unlink t node;
    push_newest t node;
    match node with Node n -> n.value | Nil -> assert false

  let find_or_add t key compute =
    let resident =
      Mutex.protect t.mutex (fun () ->
          match H.find_opt t.table key with
          | Some node ->
            t.hits <- t.hits + 1;
            Some (touch t node)
          | None ->
            t.misses <- t.misses + 1;
            None)
    in
    match resident with
    | Some v ->
      Obs.Metrics.incr t.obs_hits;
      v
    | None ->
      Obs.Metrics.incr t.obs_misses;
      let value = compute () in
      Mutex.protect t.mutex (fun () ->
          match H.find_opt t.table key with
          | Some node -> touch t node (* another domain stored first: its value wins *)
          | None ->
            (match t.oldest with
            | Node lru as node when H.length t.table >= t.capacity ->
              H.remove t.table lru.key;
              unlink t node;
              t.evictions <- t.evictions + 1;
              Obs.Metrics.incr t.obs_evictions
            | _ -> ());
            let node = Node { key; value; newer = Nil; older = Nil } in
            H.replace t.table key node;
            push_newest t node;
            value)

  let clear t =
    Mutex.protect t.mutex (fun () ->
        Obs.Metrics.incr t.obs_evictions ~by:(H.length t.table);
        H.reset t.table;
        t.newest <- Nil;
        t.oldest <- Nil;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)

  let stats t =
    Mutex.protect t.mutex (fun () ->
        let size = H.length t.table in
        { hits = t.hits; misses = t.misses; evictions = t.evictions; size })
end
