(* Branch-and-bound placement search.

   The paper's max-min search over Problem.t, with four pruning devices
   on top of the incumbent rule:

   - a memoized partial-assignment bound: per-qubit optimistic caps
     (precomputed once from row maxima of the score model) folded into
     suffix tables over the fixed placement order, giving an O(1)
     admissible bound on what any completion of the current partial
     assignment can still achieve;

   - a tie bound for Max_min: a branch whose optimistic minimum cannot
     strictly beat the incumbent's can only be recorded through the
     log-product tie rule of [better], so it must also be able to beat the
     incumbent's log-product. Noise-unaware scores are full of equal
     reliabilities; without this bound the search enumerates every tied
     placement;

   - dominance pruning over symmetric hardware qubits: hardware qubits
     with bitwise-identical score/readout profiles are interchangeable, so
     at each node only the first unused member of each symmetry class is
     branched on;

   - twin program qubits: adjacent qubits of the placement order with the
     same measured flag and the same partner/orientation/count sequences
     (BV's data qubits) are interchangeable. At a twin depth the search
     branches only on a hardware qubit h that the previous depth branches
     on after [prev], the previous twin's qubit, or on a class-mate of
     [prev]. So a run of k twins tries each set of hardware qubits in one
     order, not k! orders. The costs at the two depths are bitwise the
     same function of h, so for every set given to a twin run, the first
     ordering the un-pruned search reaches obeys this rule at every step.
     The class-mate exception is needed because dominance branches on the
     *lowest* unused member of a class while [before] puts equal-cost
     qubits *higher* index first: without it, the two rules together
     would drop whole orbits.

   The first three only discard subtrees that provably cannot change the
   recorded incumbent chain. The twin rule drops the other orderings of a
   set: they have bitwise-equal minima and log-products that differ only
   by the rounding of a float sum taken in another order. So the returned
   objective is bitwise identical to the un-pruned search's, and the
   placement is the first ordering of each twin run in branching order
   (the un-pruned search may keep a later ordering whose log-product
   rounds an ulp or two higher). The argument relies on reliability values
   that are either bitwise equal or separated by much more than the 1e-12
   tie tolerance — true of every calibration model in the tree, and
   pinned by the compiled-artifact digests in test/layout_golden.ml.

   Each node is flat and allocation-free: the problem's closures are
   tabulated once per solve (scores and their logs, readouts and their
   logs, interaction partners as arrays), candidate costs go into
   per-depth buffers, and the candidates are ordered by an in-place
   heapsort on a monomorphic comparison, so a node costs O(k log k) over
   its k candidates on top of the O(n_hardware) scan. Under Max_min the
   scan also applies an incumbent floor: it computes a candidate's
   minimum term first and drops the candidate when that term, the
   partial placement's minimum or the suffix bound already falls below
   the incumbent's minimum. That is [viable]'s first clause, so only
   candidates that could be viable pay for their log-product term (on
   noise-unaware BV8 about one in three). Minima are taken with [fmin],
   an inlined comparison that equals [Float.min] on these values. *)

let log_floor = Problem.log_floor
let default_node_budget = 200_000
let m_nodes = Obs.Metrics.counter "layout.bb.nodes"
let m_truncated = Obs.Metrics.counter "layout.bb.truncated"
let m_costed = Obs.Metrics.counter "layout.bb.costed"

(* [Float.min a b] for the values a search compares: reliabilities, their
   bounds and the 1.0/infinity seeds are never NaN and never -0.0, the
   only inputs on which [Float.min] differs from one comparison. Closed
   and inlined, so its result stays unboxed (a float returned from a call
   is boxed, and a node must not allocate). *)
let[@inline] fmin (a : float) b = if a < b then a else b

(* The problem tabulated once per solve. Hardware pairs are row-major:
   [score.(h * n_hardware + h')] is [pr.score h h'] (the diagonal is never
   read); the [log_] tables hold [log (max r log_floor)], the exact terms
   the objective accumulates. [partner.(p)], [oriented.(p)] and
   [count.(p)] are [Problem.partners] as arrays, in the same order (cost
   accumulation order is part of the bit-compatibility contract). *)
type tables = {
  n_hardware : int;
  score : float array;
  log_score : float array;
  readout : float array;
  log_readout : float array;
  partner : int array array;
  oriented : bool array array;
  count : float array array;
  measured : bool array;
}

let log_term r = log (Float.max r log_floor)

let tabulate (pr : Problem.t) =
  let n = pr.n_hardware in
  let score = Array.make (n * n) 0.0 in
  for h = 0 to n - 1 do
    for h' = 0 to n - 1 do
      if h <> h' then score.((h * n) + h') <- pr.score h h'
    done
  done;
  let readout = Array.init n pr.readout in
  let partners = Array.map Array.of_list (Problem.partners pr) in
  {
    n_hardware = n;
    score;
    log_score = Array.map log_term score;
    readout;
    log_readout = Array.map log_term readout;
    partner = Array.map (Array.map (fun (other, _, _) -> other)) partners;
    oriented = Array.map (Array.map (fun (_, oriented, _) -> oriented)) partners;
    count = Array.map (Array.map (fun (_, _, count) -> float_of_int count)) partners;
    measured = Problem.measured_set pr;
  }

(* Hardware symmetry classes: rep.(h) is the smallest hardware qubit whose
   score/readout profile is bitwise identical to h's (swapping the two
   qubits is an automorphism of the score model). *)
let symmetry_reps t =
  let n = t.n_hardware and score = t.score in
  let rep = Array.init n (fun h -> h) in
  let same h1 h2 =
    t.readout.(h1) = t.readout.(h2)
    && score.((h1 * n) + h2) = score.((h2 * n) + h1)
    &&
    let ok = ref true in
    for x = 0 to n - 1 do
      if x <> h1 && x <> h2 then
        if
          score.((h1 * n) + x) <> score.((h2 * n) + x)
          || score.((x * n) + h1) <> score.((x * n) + h2)
        then ok := false
    done;
    !ok
  in
  for h2 = 1 to n - 1 do
    let h1 = ref 0 in
    while !h1 < h2 && rep.(h2) = h2 do
      if rep.(!h1) = !h1 && same !h1 h2 then rep.(h2) <- !h1;
      incr h1
    done
  done;
  rep

(* Optimistic per-qubit caps and suffix bounds over the placement order.

   cap_min.(q) bounds the best min-contribution qubit [q]'s own terms can
   achieve over any placement; suffix_min.(k) = min of caps over order
   positions >= k. For the product objective, each edge is attributed to
   the later-placed endpoint and bounded by the global best directed
   score; suffix_log.(k) sums those optimistic log terms for positions
   >= k. *)
type bounds = { suffix_min : float array; suffix_log : float array }

let compute_bounds (pr : Problem.t) t order =
  let n = pr.n_program and h_n = t.n_hardware in
  let rowmax_out = Array.make h_n neg_infinity in
  let rowmax_in = Array.make h_n neg_infinity in
  let global_max = ref neg_infinity in
  for h = 0 to h_n - 1 do
    for h' = 0 to h_n - 1 do
      if h <> h' then begin
        let s = t.score.((h * h_n) + h') in
        if s > rowmax_out.(h) then rowmax_out.(h) <- s;
        if s > rowmax_in.(h') then rowmax_in.(h') <- s;
        if s > !global_max then global_max := s
      end
    done
  done;
  let cap_min = Array.make n infinity in
  for q = 0 to n - 1 do
    let best = ref neg_infinity in
    for h = 0 to h_n - 1 do
      let cap = ref infinity in
      Array.iter
        (fun oriented ->
          let rm = if oriented then rowmax_out.(h) else rowmax_in.(h) in
          if rm < !cap then cap := rm)
        t.oriented.(q);
      if t.measured.(q) then begin
        let r = t.readout.(h) in
        if r < !cap then cap := r
      end;
      if !cap > !best then best := !cap
    done;
    cap_min.(q) <- !best
  done;
  let pos = Array.make n 0 in
  Array.iteri (fun k q -> pos.(q) <- k) order;
  (* Log terms accounted at each order position: an edge lands on the
     later-placed endpoint; a readout on its own qubit. *)
  let log_at = Array.make n 0.0 in
  let edge_log = log_term !global_max in
  List.iter
    (fun ((a, b), count) ->
      let later = if pos.(a) > pos.(b) then pos.(a) else pos.(b) in
      log_at.(later) <- log_at.(later) +. (float_of_int count *. edge_log))
    pr.pairs;
  let max_readout =
    Array.fold_left (fun acc r -> if r > acc then r else acc) neg_infinity t.readout
  in
  let readout_log = log_term max_readout in
  List.iter (fun m -> log_at.(pos.(m)) <- log_at.(pos.(m)) +. readout_log) pr.measured;
  let suffix_min = Array.make (n + 1) infinity in
  let suffix_log = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    suffix_min.(k) <- Float.min suffix_min.(k + 1) cap_min.(order.(k));
    suffix_log.(k) <- suffix_log.(k + 1) +. log_at.(k)
  done;
  { suffix_min; suffix_log }

(* Does hardware qubit [a] branch before [b], given their costs
   [cmin]/[clog] at this node? Best local cost first under the objective's
   key, ties to the higher hardware qubit. The incumbent chain, and so the
   returned placement, depends on this order (pinned by
   test/layout_golden.ml). It is a strict total order, so an unstable
   in-place sort reproduces it exactly. *)
let before objective cmin clog a b =
  let c =
    match (objective : Problem.objective) with
    | Max_min ->
      let c = Float.compare cmin.(a) cmin.(b) in
      if c <> 0 then c else Float.compare clog.(a) clog.(b)
    | Product ->
      let c = Float.compare clog.(a) clog.(b) in
      if c <> 0 then c else Float.compare cmin.(a) cmin.(b)
  in
  if c <> 0 then c > 0 else a > b

(* Twin program qubits: twin.(d) when order.(d) and order.(d-1) have the
   same measured flag and equal partner/orientation/count sequences. Equal
   partner sequences also mean neither is a partner of the other (no
   qubit partners itself), so placing order.(d-1) does not touch
   order.(d)'s costs. *)
let twins t order =
  Array.init (Array.length order) (fun d ->
      d > 0
      &&
      let p = order.(d) and q = order.(d - 1) in
      t.measured.(p) = t.measured.(q)
      && t.partner.(p) = t.partner.(q)
      && t.oriented.(p) = t.oriented.(q)
      && t.count.(p) = t.count.(q))

(* Heapsort of buf.(0 .. k-1) into branching order: a heap whose root is
   the candidate branched on last. *)
let rec sift objective cmin clog buf i k =
  let l = (2 * i) + 1 in
  if l < k then begin
    let c =
      if l + 1 < k && before objective cmin clog buf.(l) buf.(l + 1) then l + 1 else l
    in
    if before objective cmin clog buf.(i) buf.(c) then begin
      let x = buf.(i) in
      buf.(i) <- buf.(c);
      buf.(c) <- x;
      sift objective cmin clog buf c k
    end
  end

let sort_candidates objective cmin clog buf k =
  for i = (k / 2) - 1 downto 0 do
    sift objective cmin clog buf i k
  done;
  for last = k - 1 downto 1 do
    let x = buf.(0) in
    buf.(0) <- buf.(last);
    buf.(last) <- x;
    sift objective cmin clog buf 0 last
  done

let solve ?(node_budget = default_node_budget) (pr : Problem.t) : Report.t =
  let n_program = pr.n_program and n_hardware = pr.n_hardware in
  let objective = pr.objective in
  let t = tabulate pr in
  let order = Problem.order pr in
  let rep = symmetry_reps t in
  let twin = twins t order in
  let { suffix_min; suffix_log } = compute_bounds pr t order in
  let placement = Array.make n_program (-1) in
  let used = Array.make n_hardware false in
  let class_seen = Array.make n_hardware false in
  let nodes = ref 0 and costed = ref 0 in
  let truncated = ref false in
  (* The incumbent, seeded with the trivial placement. *)
  let best_placement = ref (Problem.trivial pr) in
  let best_min, best_log =
    let m, lp = Problem.evaluate pr !best_placement in
    (ref m, ref lp)
  in
  (* Per-depth buffers. At depth d (placing order.(d)): path_min.(d) and
     path_log.(d) score the partial placement so far; cost_min.(d).(h) and
     cost_log.(d).(h) are the terms placing order.(d) on h adds;
     candidates.(d) holds the viable hardware qubits in branching order. *)
  let path_min = Array.make (n_program + 1) 1.0 in
  let path_log = Array.make (n_program + 1) 0.0 in
  let cost_min = Array.make_matrix n_program n_hardware 0.0 in
  let cost_log = Array.make_matrix n_program n_hardware 0.0 in
  let candidates = Array.make_matrix n_program n_hardware 0 in
  (* The log-product term placing p on h adds against the
     already-placed partners, into cost_log.(depth).(h). The scan below
     computes the minimum term. *)
  let log_cost depth p h =
    let log_prod = ref 0.0 in
    let partner = t.partner.(p) and oriented = t.oriented.(p) and count = t.count.(p) in
    for j = 0 to Array.length partner - 1 do
      let oh = placement.(partner.(j)) in
      if oh >= 0 then begin
        let i = if oriented.(j) then (h * n_hardware) + oh else (oh * n_hardware) + h in
        log_prod := !log_prod +. (count.(j) *. t.log_score.(i))
      end
    done;
    if t.measured.(p) then log_prod := !log_prod +. t.log_readout.(h);
    cost_log.(depth).(h) <- !log_prod
  in
  (* Could some completion of placing order.(depth) on h still be
     recorded? Checked against the suffix bounds and, for Max_min, the tie
     bound: a completion that cannot strictly beat the incumbent's minimum
     is recorded only if it beats its log-product. *)
  let viable depth h =
    let next_log = path_log.(depth) +. cost_log.(depth).(h) in
    let opt_log = next_log +. suffix_log.(depth + 1) in
    match objective with
    | Problem.Max_min ->
      let opt_min =
        fmin (fmin path_min.(depth) cost_min.(depth).(h)) suffix_min.(depth + 1)
      in
      opt_min >= !best_min -. 1e-12
      && (opt_min > !best_min +. 1e-12 || opt_log > !best_log)
    | Problem.Product -> next_log > !best_log && opt_log >= !best_log
  in
  let rec search depth =
    if depth = n_program then begin
      (* The incumbent recording rule: Max_min breaks ties on the minimum
         (within 1e-12) by log-product. *)
      let cur_min = path_min.(depth) and cur_log = path_log.(depth) in
      let better =
        match objective with
        | Problem.Max_min ->
          cur_min > !best_min +. 1e-12
          || (cur_min > !best_min -. 1e-12 && cur_log > !best_log)
        | Problem.Product ->
          cur_log > !best_log || (cur_log = !best_log && cur_min > !best_min +. 1e-12)
      in
      if better then begin
        best_min := cur_min;
        best_log := cur_log;
        best_placement := Array.copy placement
      end
    end
    else begin
      let p = order.(depth) in
      let cmin = cost_min.(depth) and clog = cost_log.(depth) in
      let buf = candidates.(depth) in
      (* Candidate hardware qubits. Dominance: only the first unused
         member of each hardware symmetry class is branched on — its
         class-mates root isomorphic subtrees explored no earlier, which can
         never improve on it. At a twin depth, only a class-mate of the
         previous twin's qubit [prev] or a qubit the previous depth
         branches on after [prev]: its costs are the previous depth's, so
         [prev]'s are copied rather than recomputed. *)
      let is_twin = twin.(depth) in
      let prev = if is_twin then placement.(order.(depth - 1)) else -1 in
      if is_twin then begin
        cmin.(prev) <- cost_min.(depth - 1).(prev);
        clog.(prev) <- cost_log.(depth - 1).(prev)
      end;
      Array.fill class_seen 0 n_hardware false;
      let partner = t.partner.(p) and oriented = t.oriented.(p) and measured = t.measured.(p) in
      (* The incumbent floor. Under Max_min a candidate whose optimistic
         minimum (the partial placement's, its own term's, the suffix
         bound's) is below the incumbent's fails [viable]'s first clause
         whatever its log-product, so that term is never computed (nor
         read: only [buf] members and [prev] are). Its class is still
         marked seen: its class-mates have its costs. The minimum of three
         values does not depend on the order it is taken in, and the
         incumbent does not move during the scan. *)
      let floor_min =
        match objective with
        | Problem.Max_min -> !best_min -. 1e-12
        | Problem.Product -> neg_infinity
      in
      let base = fmin path_min.(depth) suffix_min.(depth + 1) in
      let k = ref 0 in
      for h = 0 to n_hardware - 1 do
        if (not used.(h)) && not class_seen.(rep.(h)) then begin
          class_seen.(rep.(h)) <- true;
          let min_rel = ref 1.0 in
          for j = 0 to Array.length partner - 1 do
            let oh = placement.(partner.(j)) in
            if oh >= 0 then begin
              let r =
                t.score.(if oriented.(j) then (h * n_hardware) + oh else (oh * n_hardware) + h)
              in
              if r < !min_rel then min_rel := r
            end
          done;
          if measured then begin
            let r = t.readout.(h) in
            if r < !min_rel then min_rel := r
          end;
          cmin.(h) <- !min_rel;
          if fmin base !min_rel >= floor_min then begin
            incr costed;
            log_cost depth p h;
            if
              ((not is_twin) || rep.(h) = rep.(prev) || before objective cmin clog prev h)
              && viable depth h
            then begin
              buf.(!k) <- h;
              incr k
            end
          end
        end
      done;
      sort_candidates objective cmin clog buf !k;
      let i = ref 0 in
      while !i < !k && not !truncated do
        let h = buf.(!i) in
        incr nodes;
        if !nodes > node_budget then truncated := true
        else if viable depth h then begin
          placement.(p) <- h;
          used.(h) <- true;
          path_min.(depth + 1) <- fmin path_min.(depth) cmin.(h);
          path_log.(depth + 1) <- path_log.(depth) +. clog.(h);
          search (depth + 1);
          used.(h) <- false;
          placement.(p) <- -1
        end;
        incr i
      done
    end
  in
  search 0;
  Obs.Metrics.incr m_nodes ~by:!nodes;
  Obs.Metrics.incr m_costed ~by:!costed;
  if !truncated then Obs.Metrics.incr m_truncated;
  {
    Report.strategy = "bb";
    placement = !best_placement;
    objective = !best_min;
    log_product = !best_log;
    proven_optimal = not !truncated;
    work = { Report.no_work with search_nodes = !nodes };
  }
