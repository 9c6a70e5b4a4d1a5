module Topology = Device.Topology
module Calibration = Device.Calibration

type t = {
  n : int;
  edge_rel : float array array;
      (** dense coupling reliability; negative when uncoupled *)
  swap_rel : float array array;  (** max-product swap reliability, hops^3 *)
  next_hop : int array array;  (** successor matrix for path reconstruction *)
  score : float array array;
  best_neighbor : int array array;  (** argmax t' for (c, t); -1 if none *)
  readout : float array;
}

let uncoupled = -1.0

let of_calibration ~noise_aware topology calibration =
  let n = Topology.n_qubits topology in
  let avg = Calibration.average_two_q_err calibration in
  let edge_error a b =
    if noise_aware then Calibration.two_q_err calibration a b else avg
  in
  (* O(1) adjacency lookups: dense n x n reliability with a negative
     sentinel on uncoupled pairs (replaces the former assoc list). *)
  let edge_rel = Array.make_matrix n n uncoupled in
  List.iter
    (fun (a, b) ->
      let r = 1.0 -. edge_error a b in
      edge_rel.(a).(b) <- r;
      edge_rel.(b).(a) <- r)
    (Topology.edges topology);
  (* Floyd-Warshall on swap reliabilities: one hop costs rel^3 (the three
     CNOTs of a SWAP). Maximize the product over hops. *)
  let swap_rel = Array.make_matrix n n 0.0 in
  let next_hop = Array.make_matrix n n (-1) in
  for q = 0 to n - 1 do
    swap_rel.(q).(q) <- 1.0;
    next_hop.(q).(q) <- q
  done;
  List.iter
    (fun (a, b) ->
      let r = edge_rel.(a).(b) in
      let r3 = r *. r *. r in
      swap_rel.(a).(b) <- r3;
      swap_rel.(b).(a) <- r3;
      next_hop.(a).(b) <- b;
      next_hop.(b).(a) <- a)
    (Topology.edges topology);
  (* Pass k reads row k, row i and row i's entry through k once per row:
     none of them moves while row i is updated, because every
     reliability lies in [0, 1], so swap_rel.(k).(k) stays 1.0 and the
     j = k step never improves swap_rel.(i).(k). A row whose entry
     through k is 0 is skipped: 0 times an entry never beats a
     non-negative one. The products and their order are unchanged. *)
  for k = 0 to n - 1 do
    let rel_k = swap_rel.(k) in
    for i = 0 to n - 1 do
      let rel_i = swap_rel.(i) in
      let r_ik = rel_i.(k) in
      if r_ik <> 0.0 then begin
        let hop_i = next_hop.(i) in
        let hop_ik = hop_i.(k) in
        for j = 0 to n - 1 do
          let via = r_ik *. rel_k.(j) in
          if via > rel_i.(j) then begin
            rel_i.(j) <- via;
            hop_i.(j) <- hop_ik
          end
        done
      end
    done
  done;
  (* Score (c, t): best neighbour t' of t maximizing swap_rel(c, t') times
     the direct t'-t coupling reliability; the first such t' in ascending
     order wins ties. *)
  let neighbors = Array.init n (fun q -> Array.of_list (Topology.neighbors topology q)) in
  let score = Array.make_matrix n n 0.0 in
  let best_neighbor = Array.make_matrix n n (-1) in
  for c = 0 to n - 1 do
    let rel_c = swap_rel.(c) and score_c = score.(c) and best_c = best_neighbor.(c) in
    for tgt = 0 to n - 1 do
      if c <> tgt then begin
        let nbrs = neighbors.(tgt) in
        for x = 0 to Array.length nbrs - 1 do
          let t' = nbrs.(x) in
          if t' <> tgt then begin
            let candidate = rel_c.(t') *. edge_rel.(t').(tgt) in
            if candidate > score_c.(tgt) then begin
              score_c.(tgt) <- candidate;
              best_c.(tgt) <- t'
            end
          end
        done
      end
    done
  done;
  let readout =
    Array.init n (fun q -> 1.0 -. Calibration.readout_err calibration q)
  in
  { n; edge_rel; swap_rel; next_hop; score; best_neighbor; readout }

let n_qubits t = t.n

let check t q = if q < 0 || q >= t.n then invalid_arg "Reliability: qubit out of range"

let score t c tgt =
  check t c;
  check t tgt;
  t.score.(c).(tgt)

let edge_reliability t a b =
  check t a;
  check t b;
  let r = t.edge_rel.(a).(b) in
  if r < 0.0 then raise Not_found;
  r

let swap_reliability t a b =
  check t a;
  check t b;
  t.swap_rel.(a).(b)

let reconstruct_path t src dst =
  if t.next_hop.(src).(dst) < 0 then raise Not_found;
  let rec walk acc cur =
    if cur = dst then List.rev (cur :: acc)
    else walk (cur :: acc) t.next_hop.(cur).(dst)
  in
  walk [] src

let swap_path t c tgt =
  check t c;
  check t tgt;
  if c = tgt then invalid_arg "Reliability.swap_path: same qubit";
  let t' = t.best_neighbor.(c).(tgt) in
  if t' < 0 then raise Not_found;
  reconstruct_path t c t'

let path_between t a b =
  check t a;
  check t b;
  if a = b then [ a ] else reconstruct_path t a b

let readout_reliability t q =
  check t q;
  t.readout.(q)

let pp fmt t =
  Format.fprintf fmt "    ";
  for j = 0 to t.n - 1 do
    Format.fprintf fmt "%5d " j
  done;
  Format.fprintf fmt "@\n";
  for i = 0 to t.n - 1 do
    Format.fprintf fmt "%3d " i;
    for j = 0 to t.n - 1 do
      if i = j then Format.fprintf fmt "    - "
      else Format.fprintf fmt "%5.2f " t.score.(i).(j)
    done;
    Format.fprintf fmt "@\n"
  done

let cache_clear () = ()
