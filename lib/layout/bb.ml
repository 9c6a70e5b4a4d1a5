(* Branch-and-bound placement search.

   The paper's max-min search over Problem.t, with two *sound* pruning
   devices on top of the incumbent rule:

   - a memoized partial-assignment bound: per-qubit optimistic caps
     (precomputed once from row maxima of the score model) folded into
     suffix tables over the fixed placement order, giving an O(1)
     admissible bound on what any completion of the current partial
     assignment can still achieve;

   - dominance pruning over symmetric hardware qubits: hardware qubits
     with bitwise-identical score/readout profiles are interchangeable, so
     at each node only the first unused member of each symmetry class is
     branched on.

   Both prunings only discard subtrees that provably cannot change the
   recorded incumbent chain, so the returned placement (and objective) is
   bit-identical to the un-pruned search. The argument relies on
   reliability values that are either bitwise equal or separated by much
   more than the 1e-12 tie tolerance — true of every calibration model in
   the tree, and pinned by the compiled-artifact digests in
   test/layout_golden.ml. *)

let log_floor = Problem.log_floor
let default_node_budget = 200_000

(* Hardware symmetry classes: rep.(h) is the smallest hardware qubit whose
   score/readout profile is bitwise identical to h's (swapping the two
   qubits is an automorphism of the score model). *)
let symmetry_reps (pr : Problem.t) =
  let n = pr.n_hardware in
  let rep = Array.init n (fun h -> h) in
  let same h1 h2 =
    pr.readout h1 = pr.readout h2
    && pr.score h1 h2 = pr.score h2 h1
    && (let ok = ref true in
        for x = 0 to n - 1 do
          if x <> h1 && x <> h2 then
            if pr.score h1 x <> pr.score h2 x || pr.score x h1 <> pr.score x h2
            then ok := false
        done;
        !ok)
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

let compute_bounds (pr : Problem.t) order partners measured_set =
  let n = pr.n_program and h_n = pr.n_hardware in
  let rowmax_out = Array.make h_n neg_infinity in
  let rowmax_in = Array.make h_n neg_infinity in
  let global_max = ref neg_infinity in
  for h = 0 to h_n - 1 do
    for h' = 0 to h_n - 1 do
      if h <> h' then begin
        let s = pr.score h h' in
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
      List.iter
        (fun (_, oriented, _) ->
          let rm = if oriented then rowmax_out.(h) else rowmax_in.(h) in
          if rm < !cap then cap := rm)
        partners.(q);
      if measured_set.(q) then begin
        let r = pr.readout h in
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
  let edge_log = log (Float.max !global_max log_floor) in
  List.iter
    (fun ((a, b), count) ->
      let later = if pos.(a) > pos.(b) then pos.(a) else pos.(b) in
      log_at.(later) <- log_at.(later) +. (float_of_int count *. edge_log))
    pr.pairs;
  let max_readout = ref neg_infinity in
  for h = 0 to h_n - 1 do
    let r = pr.readout h in
    if r > !max_readout then max_readout := r
  done;
  List.iter
    (fun m ->
      log_at.(pos.(m)) <- log_at.(pos.(m)) +. log (Float.max !max_readout log_floor))
    pr.measured;
  let suffix_min = Array.make (n + 1) infinity in
  let suffix_log = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    suffix_min.(k) <- Float.min suffix_min.(k + 1) cap_min.(order.(k));
    (* Optimistic log terms are <= 0 only when scores are <= 1; clamp at 0
       so the bound stays admissible for any score model. *)
    suffix_log.(k) <- suffix_log.(k + 1) +. Float.min 0.0 log_at.(k)
  done;
  { suffix_min; suffix_log }

let solve ?(node_budget = default_node_budget) (pr : Problem.t) : Report.t =
  let n_program = pr.n_program and n_hardware = pr.n_hardware in
  let objective = pr.objective in
  let partners = Problem.partners pr in
  let measured_set = Problem.measured_set pr in
  let order = Problem.order pr in
  let rep = symmetry_reps pr in
  let bounds = compute_bounds pr order partners measured_set in
  let placement = Array.make n_program (-1) in
  let used = Array.make n_hardware false in
  let nodes = ref 0 in
  let truncated = ref false in
  let best_placement = ref None in
  let best_min = ref (-1.0) in
  let best_log = ref neg_infinity in
  (* Incumbent recording rule — identical to the original search. *)
  let better cur_min cur_log =
    match objective with
    | Problem.Max_min ->
      cur_min > !best_min +. 1e-12
      || (cur_min > !best_min -. 1e-12 && cur_log > !best_log)
    | Problem.Product ->
      cur_log > !best_log || (cur_log = !best_log && cur_min > !best_min +. 1e-12)
  in
  let record pl m lp =
    best_min := m;
    best_log := lp;
    best_placement := Some pl
  in
  (* Seed the incumbent with the trivial placement. *)
  let () =
    let trivial_placement = Problem.trivial pr in
    let m, lp = Problem.evaluate pr trivial_placement in
    record trivial_placement m lp
  in
  let placement_cost p h =
    let min_rel = ref 1.0 and log_prod = ref 0.0 in
    let account r count =
      if r < !min_rel then min_rel := r;
      log_prod := !log_prod +. (float_of_int count *. log (Float.max r log_floor))
    in
    List.iter
      (fun (other, oriented, count) ->
        let oh = placement.(other) in
        if oh >= 0 then
          let r = if oriented then pr.score h oh else pr.score oh h in
          account r count)
      partners.(p);
    if measured_set.(p) then account (pr.readout h) 1;
    (!min_rel, !log_prod)
  in
  (* The original viability rule, plus the O(1) suffix bound: a branch is
     kept only when an optimistic completion could still be recorded. *)
  let viable depth next_min next_log =
    match objective with
    | Problem.Max_min ->
      (!best_placement = None || next_min >= !best_min -. 1e-12)
      && Float.min next_min bounds.suffix_min.(depth) >= !best_min -. 1e-12
    | Problem.Product ->
      (!best_placement = None || next_log > !best_log)
      && next_log +. bounds.suffix_log.(depth) >= !best_log
  in
  let class_seen = Array.make n_hardware false in
  let rec search depth cur_min cur_log =
    if !truncated then ()
    else if depth = n_program then begin
      if better cur_min cur_log then record (Array.copy placement) cur_min cur_log
    end
    else begin
      let p = order.(depth) in
      (* Candidate hardware qubits, best local cost first. Dominance: only
         the first unused member of each hardware symmetry class is
         branched on — its class twins root isomorphic subtrees explored
         no earlier, which can never improve on it. *)
      Array.fill class_seen 0 n_hardware false;
      let candidates = ref [] in
      for h = 0 to n_hardware - 1 do
        if (not used.(h)) && not class_seen.(rep.(h)) then begin
          class_seen.(rep.(h)) <- true;
          let m, lp = placement_cost p h in
          if viable (depth + 1) (Float.min cur_min m) (cur_log +. lp) then
            candidates := (m, lp, h) :: !candidates
        end
      done;
      let candidates =
        let by_min (m1, l1, _) (m2, l2, _) = compare (m2, l2) (m1, l1) in
        let by_log (m1, l1, _) (m2, l2, _) = compare (l2, m2) (l1, m1) in
        List.sort
          (match objective with Problem.Max_min -> by_min | Problem.Product -> by_log)
          !candidates
      in
      List.iter
        (fun (m, lp, h) ->
          if not !truncated then begin
            incr nodes;
            if !nodes > node_budget then truncated := true
            else begin
              let next_min = Float.min cur_min m in
              if viable (depth + 1) next_min (cur_log +. lp) then begin
                placement.(p) <- h;
                used.(h) <- true;
                search (depth + 1) next_min (cur_log +. lp);
                used.(h) <- false;
                placement.(p) <- -1
              end
            end
          end)
        candidates
    end
  in
  search 0 1.0 0.0;
  let pl =
    match !best_placement with Some pl -> pl | None -> Problem.trivial pr
  in
  {
    Report.strategy = "bb";
    placement = pl;
    objective = !best_min;
    log_product = !best_log;
    proven_optimal = not !truncated;
    work = { Report.no_work with search_nodes = !nodes };
    cache = Report.Bypass;
  }
