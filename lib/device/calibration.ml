module Rng = Mathkit.Rng

type profile = {
  avg_one_q_err : float;
  avg_two_q_err : float;
  avg_readout_err : float;
  coherence_us : float;
  one_q_time_us : float;
  two_q_time_us : float;
  spatial_sigma : float;
  temporal_sigma : float;
  two_q_scale : (int * int -> float) option;
}

type t = {
  day : int;
  one_q : float array;
  two_q : ((int * int) * float) list;
  readout : float array;
  row_start : int array;
  neighbours : int array;
  neighbour_err : float array;
}

let normalize (a, b) = if a <= b then (a, b) else (b, a)

(* Neighbour rows in CSR form: qubit [a]'s couplings are the entries
   [row_start.(a) .. row_start.(a + 1) - 1] of [neighbours] and
   [neighbour_err]. Each pair of [two_q] enters both endpoints' rows in
   list order, so a row's first entry for a neighbour is the list's
   first entry for that pair. Pairs must be distinct non-negative
   qubits. *)
let make ~day ~one_q ~two_q ~readout =
  let rows =
    List.fold_left (fun acc ((a, b), _) -> max acc (1 + max a b)) (Array.length one_q) two_q
  in
  let row_start = Array.make (rows + 1) 0 in
  List.iter
    (fun ((a, b), _) ->
      row_start.(a + 1) <- row_start.(a + 1) + 1;
      row_start.(b + 1) <- row_start.(b + 1) + 1)
    two_q;
  for q = 1 to rows do
    row_start.(q) <- row_start.(q) + row_start.(q - 1)
  done;
  let fill = Array.sub row_start 0 rows in
  let neighbours = Array.make row_start.(rows) 0 in
  let neighbour_err = Array.make row_start.(rows) 0.0 in
  let add a b e =
    neighbours.(fill.(a)) <- b;
    neighbour_err.(fill.(a)) <- e;
    fill.(a) <- fill.(a) + 1
  in
  List.iter
    (fun ((a, b), e) ->
      add a b e;
      add b a e)
    two_q;
  { day; one_q; two_q; readout; row_start; neighbours; neighbour_err }

(* Deterministic per-entity generator: every (seed, entity, day) triple gets
   its own stream, so querying day 5 never depends on whether day 4 was
   generated first. *)
let entity_rng ~seed ~kind ~a ~b ~day =
  let h = (((((seed * 31) + kind) * 1_000_003) + ((a * 131) + b)) * 8191) + day in
  let rng = Rng.create h in
  (* Burn a few outputs to decorrelate nearby integer seeds. *)
  ignore (Rng.int64 rng);
  ignore (Rng.int64 rng);
  rng

let lognormal rng sigma = exp (sigma *. Rng.gaussian rng)

let clamp_error avg x =
  let lo = avg /. 10.0 and hi = Float.min 0.5 (avg *. 10.0) in
  Float.max lo (Float.min hi x)

(* Spatial factor is day-independent (a qubit that is bad stays bad);
   temporal factor refreshes each day. *)
let drifted_error ~seed ~kind ~a ~b ~day ~avg ~profile =
  let spatial = lognormal (entity_rng ~seed ~kind ~a ~b ~day:(-1)) profile.spatial_sigma in
  let temporal = lognormal (entity_rng ~seed ~kind ~a ~b ~day) profile.temporal_sigma in
  clamp_error avg (avg *. spatial *. temporal)

let generate ~seed ~day topology profile =
  let n = Topology.n_qubits topology in
  let one_q =
    Array.init n (fun q ->
        drifted_error ~seed ~kind:1 ~a:q ~b:0 ~day ~avg:profile.avg_one_q_err ~profile)
  in
  let readout =
    Array.init n (fun q ->
        drifted_error ~seed ~kind:2 ~a:q ~b:0 ~day ~avg:profile.avg_readout_err ~profile)
  in
  let two_q =
    List.map
      (fun (a, b) ->
        let a', b' = normalize (a, b) in
        let scale =
          match profile.two_q_scale with Some f -> f (a', b') | None -> 1.0
        in
        ( (a', b'),
          drifted_error ~seed ~kind:3 ~a:a' ~b:b' ~day
            ~avg:(profile.avg_two_q_err *. scale) ~profile ))
      (Topology.edges topology)
  in
  make ~day ~one_q ~two_q ~readout

let check_error name x =
  if x < 0.0 || x > 1.0 then invalid_arg (Printf.sprintf "Calibration: %s out of [0,1]" name)

let check_pair (a, b) =
  if a < 0 || b < 0 || a = b then
    invalid_arg (Printf.sprintf "Calibration: two_q pair (%d, %d) is not two distinct qubits" a b)

let explicit ~day ~one_q ~two_q ~readout =
  Array.iter (check_error "one_q") one_q;
  Array.iter (check_error "readout") readout;
  let two_q =
    List.map
      (fun (pair, e) ->
        check_pair pair;
        check_error "two_q" e;
        (normalize pair, e))
      two_q
  in
  make ~day ~one_q ~two_q ~readout

let one_q_err t q = t.one_q.(q)

let two_q_err t a b =
  if a < 0 || a >= Array.length t.row_start - 1 then raise Not_found;
  let rec scan j stop =
    if j = stop then raise Not_found
    else if t.neighbours.(j) = b then t.neighbour_err.(j)
    else scan (j + 1) stop
  in
  scan t.row_start.(a) t.row_start.(a + 1)

let readout_err t q = t.readout.(q)

let average_two_q_err t =
  match t.two_q with
  | [] -> 0.0
  | l -> List.fold_left (fun acc (_, e) -> acc +. e) 0.0 l /. float_of_int (List.length l)

let average_readout_err t =
  if Array.length t.readout = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 t.readout /. float_of_int (Array.length t.readout)
