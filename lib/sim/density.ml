module M = Mathkit.Matrix
module C = Mathkit.Cplx

type t = { n : int; vec : Statevector.t }

let init n =
  if n < 1 || n > 10 then invalid_arg "Density.init: n out of range";
  { n; vec = Statevector.init (2 * n) }

let n_qubits t = t.n

let check t q = if q < 0 || q >= t.n then invalid_arg "Density: qubit out of range"

(* U rho U+ on the vectorized rho: [k] on the row qubits, its conjugate
   on the column qubits [t.n] above them, from one coefficient array. *)
let apply_sandwich vec n k =
  Statevector.apply vec k;
  Statevector.apply vec (Statevector.Kernel.conj k ~offset:n)

let apply_one t m q =
  check t q;
  apply_sandwich t.vec t.n (Statevector.Kernel.dense_one m q)

let apply_two t m a b =
  check t a;
  check t b;
  apply_sandwich t.vec t.n (Statevector.Kernel.dense_two m a b)

let rec apply_gate t (g : Ir.Gate.t) =
  match g with
  | One (k, q) -> apply_one t (Ir.Matrices.one_q k) q
  | Two (k, a, b) -> apply_two t (Ir.Matrices.two_q k) a b
  | Ccx (a, b, c) -> List.iter (apply_gate t) (Ir.Decompose.ccx a b c)
  | Cswap (a, b, c) -> List.iter (apply_gate t) (Ir.Decompose.cswap a b c)
  | Measure _ -> invalid_arg "Density.apply_gate: Measure"

let paulis = [| Ir.Matrices.one_q X; Ir.Matrices.one_q Y; Ir.Matrices.one_q Z |]

(* Kraus mixture: acc = (1-p) rho + sum_i w_i K_i rho K_i+ where each K_i
   here is unitary (Pauli), so each term is a conjugated copy. *)
let pauli_mixture t p terms =
  if p < 0.0 || p > 1.0 then invalid_arg "Density: probability out of range";
  if p > 0.0 then begin
    let acc = Statevector.zero_like t.vec in
    Statevector.add_scaled acc (1.0 -. p) t.vec;
    let weight = p /. float_of_int (List.length terms) in
    List.iter
      (fun conjugate ->
        let copy = Statevector.copy t.vec in
        let branch = { t with vec = copy } in
        conjugate branch;
        Statevector.add_scaled acc weight copy)
      terms;
    (* Overwrite t.vec with acc. *)
    Statevector.scale t.vec 0.0;
    Statevector.add_scaled t.vec 1.0 acc
  end

let depolarize_one t p q =
  check t q;
  pauli_mixture t p
    (List.map (fun pauli branch -> apply_one branch pauli q) (Array.to_list paulis))

let depolarize_two t p a b =
  check t a;
  check t b;
  let terms = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i > 0 || j > 0 then begin
        let conjugate branch =
          if i > 0 then apply_one branch paulis.(i - 1) a;
          if j > 0 then apply_one branch paulis.(j - 1) b
        in
        terms := conjugate :: !terms
      end
    done
  done;
  pauli_mixture t p !terms

let dephase t p q =
  check t q;
  pauli_mixture t p [ (fun branch -> apply_one branch paulis.(2) q) ]

let amplitude_damp t gamma q =
  check t q;
  if gamma < 0.0 || gamma > 1.0 then invalid_arg "Density.amplitude_damp: gamma";
  (* Non-unitary Kraus pair: K0 = [[1,0],[0,sqrt(1-g)]], K1 = [[0,sqrt g],[0,0]]. *)
  let k0 =
    M.of_rows [ [ C.one; C.zero ]; [ C.zero; C.re (sqrt (1.0 -. gamma)) ] ]
  in
  let k1 = M.of_rows [ [ C.zero; C.re (sqrt gamma) ]; [ C.zero; C.zero ] ] in
  let branch m =
    let vec = Statevector.copy t.vec in
    apply_sandwich vec t.n (Statevector.Kernel.dense_one m q);
    vec
  in
  let b0 = branch k0 and b1 = branch k1 in
  Statevector.scale t.vec 0.0;
  Statevector.add_scaled t.vec 1.0 b0;
  Statevector.add_scaled t.vec 1.0 b1

let diag_index t i = (i lsl t.n) lor i

let populations t =
  Array.init (1 lsl t.n) (fun i ->
      (Statevector.amplitude t.vec (diag_index t i)).re)

let trace t = Array.fold_left ( +. ) 0.0 (populations t)

let purity t =
  (* Tr(rho^2) = sum_{r,c} |rho_{r,c}|^2 = squared 2-norm of the vectorized
     density matrix. *)
  Statevector.norm2 t.vec
