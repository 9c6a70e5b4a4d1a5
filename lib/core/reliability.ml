module Topology = Device.Topology
module Calibration = Device.Calibration
module Machine = Device.Machine

type t = {
  n : int;
  topology : Topology.t;
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
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = swap_rel.(i).(k) *. swap_rel.(k).(j) in
        if via > swap_rel.(i).(j) then begin
          swap_rel.(i).(j) <- via;
          next_hop.(i).(j) <- next_hop.(i).(k)
        end
      done
    done
  done;
  (* Score (c, t): best neighbour t' of t maximizing swap_rel(c, t') times
     the direct t'-t coupling reliability. *)
  let score = Array.make_matrix n n 0.0 in
  let best_neighbor = Array.make_matrix n n (-1) in
  for c = 0 to n - 1 do
    for tgt = 0 to n - 1 do
      if c <> tgt then
        List.iter
          (fun t' ->
            if t' <> tgt then begin
              let candidate = swap_rel.(c).(t') *. edge_rel.(t').(tgt) in
              if candidate > score.(c).(tgt) then begin
                score.(c).(tgt) <- candidate;
                best_neighbor.(c).(tgt) <- t'
              end
            end)
          (Topology.neighbors topology tgt)
    done
  done;
  let readout =
    Array.init n (fun q -> 1.0 -. Calibration.readout_err calibration q)
  in
  { n; topology; edge_rel; swap_rel; next_hop; score; best_neighbor; readout }

let compute ~noise_aware machine calibration =
  of_calibration ~noise_aware machine.Device.Machine.topology calibration

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

let equal a b =
  a.n = b.n
  && Topology.edges a.topology = Topology.edges b.topology
  && a.edge_rel = b.edge_rel && a.swap_rel = b.swap_rel
  && a.next_hop = b.next_hop && a.score = b.score
  && a.best_neighbor = b.best_neighbor && a.readout = b.readout

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

(* ---- calibration-keyed cache ----

   A sweep recompiles the same (machine, day) pair dozens of times (12
   benchmarks x 4 levels per machine in the paper's grid); the O(n^3)
   Floyd-Warshall pass and the score matrices depend only on (machine,
   day, noise_aware), so they are shared through one Parallel.Memo
   instance. *)

(* Keyed on the machine value itself (physical equality): names are not
   globally unique (users build machines by hand in tests and examples),
   and a structurally equal copy of a machine costs only a miss. *)
type cache_key = { machine : Machine.t; day : int; noise_aware : bool }

module Memo = Parallel.Memo.Make (struct
  type t = cache_key

  let equal a b =
    a.machine == b.machine && a.day = b.day && a.noise_aware = b.noise_aware

  let hash k =
    Hashtbl.hash (k.machine.Machine.name, k.machine.Machine.seed, k.day, k.noise_aware)
end)

(* Capacity: bundled sweeps span at most seven machines, ten days and both
   noise modes, so at most 140 keys. *)
let cache : t Memo.t = Memo.create ~name:"triq.reliability.cache" ~capacity:256

let compute_cached ~noise_aware ?calibration machine ~day =
  Memo.find_or_add cache { machine; day; noise_aware } (fun () ->
      let calibration =
        match calibration with
        | Some c -> c
        | None -> Machine.calibration machine ~day
      in
      compute ~noise_aware machine calibration)

let cache_clear () = Memo.clear cache
let cache_stats () = Memo.stats cache
