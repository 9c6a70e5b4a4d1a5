type t = {
  n : int;
  directed : bool;
  edge_list : (int * int) list;
  adj : int list array;  (** undirected adjacency, ascending *)
}

let normalize (a, b) = if a <= b then (a, b) else (b, a)

let create n edge_list ~directed =
  if n <= 0 then invalid_arg "Topology.create: n must be positive";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg (Printf.sprintf "Topology.create: edge (%d,%d) out of range" a b);
      if a = b then invalid_arg "Topology.create: self-loop";
      let key = normalize (a, b) in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Topology.create: duplicate edge (%d,%d)" a b);
      Hashtbl.add seen key ())
    edge_list;
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edge_list;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  { n; directed; edge_list; adj }

let n_qubits t = t.n
let directed t = t.directed
let edges t = t.edge_list
let edge_count t = List.length t.edge_list

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg "Topology: qubit out of range"

let neighbors t q =
  check_qubit t q;
  t.adj.(q)

let degree t q = List.length (neighbors t q)

let coupled t a b =
  check_qubit t a;
  check_qubit t b;
  List.mem b t.adj.(a)

let has_directed_edge t a b =
  if not t.directed then coupled t a b
  else List.exists (fun (x, y) -> x = a && y = b) t.edge_list

let bfs t src =
  let dist = Array.make t.n (-1) in
  let parent = Array.make t.n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v queue
        end)
      t.adj.(u)
  done;
  (dist, parent)

let is_connected t =
  let dist, _ = bfs t 0 in
  Array.for_all (fun d -> d >= 0) dist

let distances t src =
  check_qubit t src;
  fst (bfs t src)

let hop_distance t a b =
  check_qubit t b;
  let d = (distances t a).(b) in
  if d < 0 then raise Not_found else d

let shortest_path t a b =
  check_qubit t a;
  check_qubit t b;
  let dist, parent = bfs t a in
  if dist.(b) < 0 then raise Not_found;
  let rec walk acc v = if v = a then a :: acc else walk (v :: acc) parent.(v) in
  walk [] b

let is_fully_connected t =
  let rec all_pairs a =
    if a >= t.n then true
    else begin
      let rec inner b =
        if b >= t.n then true else coupled t a b && inner (b + 1)
      in
      inner (a + 1) && all_pairs (a + 1)
    end
  in
  t.n = 1 || all_pairs 0

let line n = create n (List.init (n - 1) (fun i -> (i, i + 1))) ~directed:false

let ring n =
  if n < 3 then invalid_arg "Topology.ring: need at least 3 qubits";
  create n (List.init n (fun i -> (i, (i + 1) mod n))) ~directed:false

let fully_connected n =
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      edges := (a, b) :: !edges
    done
  done;
  create n !edges ~directed:false

let grid rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.grid: bad shape";
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  create (rows * cols) !edges ~directed:false

let heavy_hex cells =
  if cells < 1 then invalid_arg "Topology.heavy_hex: need at least one cell";
  (* A row of hexagons sharing vertical edges. Each hexagon: two rows of 3
     vertex qubits joined by edge qubits; neighbouring hexagons share their
     boundary column. Constructed as a ladder of 12-cycles. *)
  let top i = i and bottom total i = total + i in
  let width = (2 * cells) + 1 in
  let edges = ref [] in
  for i = 0 to width - 2 do
    edges := (top i, top (i + 1)) :: !edges;
    edges := (bottom width i, bottom width (i + 1)) :: !edges
  done;
  (* Vertical rungs every second column (hexagon boundaries). *)
  let i = ref 0 in
  while !i < width do
    edges := (top !i, bottom width !i) :: !edges;
    i := !i + 2
  done;
  create (2 * width) !edges ~directed:false

let diameter t =
  let best = ref 0 in
  for a = 0 to t.n - 1 do
    Array.iter
      (fun d ->
        if d < 0 then raise Not_found;
        if d > !best then best := d)
      (distances t a)
  done;
  !best

let average_distance t =
  let total = ref 0 and pairs = ref 0 in
  for a = 0 to t.n - 1 do
    Array.iteri
      (fun b d ->
        if b <> a && d > 0 then begin
          total := !total + d;
          incr pairs
        end)
      (distances t a)
  done;
  if !pairs = 0 then 0.0 else float_of_int !total /. float_of_int !pairs

let pp fmt t =
  Format.fprintf fmt "%d qubits, %d %s edges:" t.n (edge_count t)
    (if t.directed then "directed" else "undirected");
  List.iter (fun (a, b) -> Format.fprintf fmt " %d-%d" a b) t.edge_list
