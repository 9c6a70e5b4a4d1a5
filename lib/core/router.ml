module Topology = Device.Topology

type result = {
  circuit : Ir.Circuit.t;
  final_placement : int array;
  swap_count : int;
}

type t = {
  topology : Topology.t;
  cur : int array;  (** program qubit -> hardware qubit *)
  occupant : int array;  (** hardware qubit -> program qubit, or -1 *)
  mutable out : Ir.Gate.t list;  (** emitted gates, newest first *)
  mutable swaps : int;
}

type strategy = t -> index:int -> Ir.Gate.two_q -> int -> int -> unit

let check_placement n_hardware placement =
  let seen = Array.make n_hardware false in
  Array.iteri
    (fun p h ->
      if h < 0 || h >= n_hardware then
        Analysis.Diag.invalid ~rule:"exec.placement" ~layer:"routing"
          ~loc:(Analysis.Diag.Qubit p) "placement maps program qubit %d to %d outside [0, %d)" p h
          n_hardware;
      if seen.(h) then
        Analysis.Diag.invalid ~rule:"exec.placement" ~layer:"routing"
          ~loc:(Analysis.Diag.Qubit p) "placement not injective: hardware qubit %d assigned twice" h;
      seen.(h) <- true)
    placement

let position t p = t.cur.(p)
let coupled t a b = Topology.coupled t.topology t.cur.(a) t.cur.(b)
let emit t g = t.out <- g :: t.out

let swap t u v =
  emit t (Ir.Gate.Two (Ir.Gate.Swap, u, v));
  t.swaps <- t.swaps + 1;
  let pu = t.occupant.(u) and pv = t.occupant.(v) in
  t.occupant.(u) <- pv;
  t.occupant.(v) <- pu;
  if pv >= 0 then t.cur.(pv) <- u;
  if pu >= 0 then t.cur.(pu) <- v

(* The path may run through the other operand's own location, so stop as
   soon as the two program qubits are adjacent. *)
let rec walk t ~mover a b = function
  | _ :: (v :: _ as rest) when not (coupled t a b) ->
    swap t t.cur.(mover) v;
    walk t ~mover a b rest
  | _ -> ()

let gate t kind a b =
  if not (coupled t a b) then
    Analysis.Diag.invalid ~rule:"topo.coupling" ~layer:"routing"
      ~loc:(Analysis.Diag.Pair (t.cur.(a), t.cur.(b)))
      "swap path failed to co-locate program qubits %d and %d" a b;
  emit t (Ir.Gate.Two (kind, t.cur.(a), t.cur.(b)))

let run strategy topology ~placement (c : Ir.Circuit.t) =
  let n_hardware = Topology.n_qubits topology in
  check_placement n_hardware placement;
  let cur = Array.copy placement in
  let occupant = Array.make n_hardware (-1) in
  Array.iteri (fun p h -> occupant.(h) <- p) cur;
  let t = { topology; cur; occupant; out = []; swaps = 0 } in
  List.iteri
    (fun index g ->
      match (g : Ir.Gate.t) with
      | One (k, p) -> emit t (Ir.Gate.One (k, cur.(p)))
      | Measure p -> emit t (Ir.Gate.Measure cur.(p))
      | Two (kind, a, b) ->
        if coupled t a b then emit t (Ir.Gate.Two (kind, cur.(a), cur.(b)))
        else strategy t ~index kind a b
      | Ccx _ | Cswap _ ->
        Analysis.Diag.invalid ~rule:"circuit.flat" ~layer:"routing"
          "circuit not flattened: %s" (Ir.Gate.to_string g))
    c.Ir.Circuit.gates;
  {
    circuit = Ir.Circuit.create n_hardware (List.rev t.out);
    final_placement = cur;
    swap_count = t.swaps;
  }

let route reliability topology ~placement c =
  run
    (fun t ~index:_ kind a b ->
      walk t ~mover:a a b (Reliability.swap_path reliability t.cur.(a) t.cur.(b));
      gate t kind a b)
    topology ~placement c

(* -- lookahead -- *)

let lookahead = 4

(* next.(i) = the 2Q program pairs (a, b) at or after position [i]. *)
let upcoming_pairs gates =
  let arr = Array.of_list gates in
  let n = Array.length arr in
  let next = Array.make (n + 1) [] in
  for i = n - 1 downto 0 do
    next.(i) <-
      (match arr.(i) with
      | Ir.Gate.Two (_, a, b) -> (a, b) :: next.(i + 1)
      | _ -> next.(i + 1))
  done;
  next

(* Mapping after swapping along [path]: the walker's qubit advances and
   everything on the path shifts one step back. *)
let mapping_after cur path =
  let sim = Array.copy cur in
  let rec go = function
    | u :: (v :: _ as rest) ->
      Array.iteri
        (fun p h -> if h = u then sim.(p) <- v else if h = v then sim.(p) <- u)
        sim;
      go rest
    | _ -> ()
  in
  go path;
  sim

let future_factor reliability sim pairs =
  let rec go k acc = function
    | (a, b) :: rest when k > 0 ->
      go (k - 1) (acc *. Float.max (Reliability.score reliability sim.(a) sim.(b)) 1e-6) rest
    | _ -> acc
  in
  go lookahead 1.0 pairs

let route_lookahead reliability topology ~placement (c : Ir.Circuit.t) =
  let future = upcoming_pairs c.Ir.Circuit.gates in
  (* Candidates: move the operand at [src] to a neighbour [n] of the other
     operand's position [dst], along a max-product path. *)
  let candidates src dst =
    List.filter_map
      (fun n ->
        match Reliability.path_between reliability src n with
        | path ->
          Some
            ( path,
              Reliability.swap_reliability reliability src n
              *. Reliability.edge_reliability reliability n dst )
        | exception Not_found -> None)
      (Topology.neighbors topology dst)
  in
  run
    (fun t ~index kind a b ->
      let ha = t.cur.(a) and hb = t.cur.(b) in
      let scored =
        List.map
          (fun (path, gate_rel) ->
            let sim = mapping_after t.cur path in
            (gate_rel *. future_factor reliability sim future.(index + 1), path))
          (candidates ha hb @ candidates hb ha)
      in
      match scored with
      | [] ->
        Analysis.Diag.invalid ~rule:"topo.coupling" ~layer:"routing"
          ~loc:(Analysis.Diag.Pair (ha, hb))
          "lookahead router: no swap path between hardware qubits %d and %d" ha hb
      | first :: rest ->
        let _, path =
          List.fold_left
            (fun ((bs, _) as best) ((s, _) as cand) -> if s > bs then cand else best)
            first rest
        in
        walk t ~mover:(if List.hd path = ha then a else b) a b path;
        gate t kind a b)
    topology ~placement c
