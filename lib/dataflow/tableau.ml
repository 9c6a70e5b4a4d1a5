module Matrix = Mathkit.Matrix
module Rng = Mathkit.Rng

type generator = int * bool array * bool array

(* A row is i^e * prod_q X_q^{x_q} Z_q^{z_q}, X written before Z on each
   qubit; all phase lives in [e] (mod 4). *)
type row = { mutable e : int; x : bool array; z : bool array }

type t = { n : int; destab : row array; stab : row array }

(* The single-qubit Pauli X_q ([~x:true]) or Z_q on [n] qubits. *)
let unit_row n ~x q =
  let bits = Array.make n false in
  bits.(q) <- true;
  if x then { e = 0; x = bits; z = Array.make n false }
  else { e = 0; x = Array.make n false; z = bits }

let init n =
  if n < 1 then invalid_arg "Tableau.init: need at least one qubit";
  { n; destab = Array.init n (unit_row n ~x:true); stab = Array.init n (unit_row n ~x:false) }

let n_qubits t = t.n
let copy_row r = { e = r.e; x = Array.copy r.x; z = Array.copy r.z }

let copy t =
  { n = t.n; destab = Array.map copy_row t.destab; stab = Array.map copy_row t.stab }

let to_generator r = (r.e, Array.copy r.x, Array.copy r.z)
let generators t = Array.to_list (Array.map to_generator t.stab)

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg "Tableau: qubit out of range"

(* a := a * b, exact Pauli product over rows of equal width: commuting
   b's X factors left across a's Z factors picks up (-1) per overlapping
   qubit. *)
let mul_into a b =
  let extra = ref 0 in
  for q = 0 to Array.length a.x - 1 do
    if a.z.(q) && b.x.(q) then incr extra;
    a.x.(q) <- a.x.(q) <> b.x.(q);
    a.z.(q) <- a.z.(q) <> b.z.(q)
  done;
  a.e <- (a.e + b.e + (2 * !extra)) land 3

(* Odd number of set bits. *)
let parity x =
  let x = ref x and p = ref false in
  while !x <> 0 do
    p := not !p;
    x := !x land (!x - 1)
  done;
  !p

(* ------------------------------------------------------------------ *)
(* Numeric derivation of a gate's Clifford action.                    *)
(* ------------------------------------------------------------------ *)

let eps = 1e-6

(* A gate's action as a dense conjugation table over the 4^k local
   Pauli patterns: index and result pack slot j's X bit at 2j and Z bit
   at 2j+1, the result carrying the phase increment above bit 2k. Each
   entry is the product, in X-before-Z slot order, of the images of the
   basis factors X_slot and Z_slot. *)
type action = int array

(* [derive_action k u] reads a 2^k x 2^k unitary (slot 0 = high bit, as
   in {!Ir.Matrices}); None when some basis image is not a signed Pauli
   (the gate is not Clifford). *)
let derive_action k u =
  let d = 1 lsl k in
  let ure = Array.make (d * d) 0. and uim = Array.make (d * d) 0. in
  for a = 0 to d - 1 do
    for c = 0 to d - 1 do
      let v = Matrix.get u a c in
      ure.((a * d) + c) <- v.Complex.re;
      uim.((a * d) + c) <- v.Complex.im
    done
  done;
  let cre = Array.make (d * d) 0. and cim = Array.make (d * d) 0. in
  let signs = Array.init d (fun m -> if parity m then -1. else 1.) in
  let exception Not_clifford in
  (* The image C = U P U^dagger of the basis Pauli P = X^xp Z^zp (index
     masks) as a k-wide row, when C = i^e X^x Z^z entry by entry within
     [eps]; else raises [Not_clifford]. P is monomial,
     P|c> = (-1)^(zp.c) |c xor xp>, so
     C[a][b] = sum_c (-1)^(zp.c) U[a][c xor xp] conj(U[b][c]). C's
     coefficient on X^x Z^z is its trace against that monomial,
     sum_r (-1)^(z.r) C[r xor x][r] / 2^k; the largest (compared
     unscaled) names the only candidate. *)
  let image ~xp ~zp =
    for a = 0 to d - 1 do
      for b = 0 to d - 1 do
        let sr = ref 0. and si = ref 0. in
        for c = 0 to d - 1 do
          let s = signs.(zp land c) in
          let ar = ure.((a * d) + (c lxor xp)) and ai = uim.((a * d) + (c lxor xp)) in
          let br = ure.((b * d) + c) and bi = uim.((b * d) + c) in
          sr := !sr +. (s *. ((ar *. br) +. (ai *. bi)));
          si := !si +. (s *. ((ai *. br) -. (ar *. bi)))
        done;
        cre.((a * d) + b) <- !sr;
        cim.((a * d) + b) <- !si
      done
    done;
    let best = ref (-1) and best_w = ref 0. and best_re = ref 0. and best_im = ref 0. in
    for x = 0 to d - 1 do
      for z = 0 to d - 1 do
        let tr = ref 0. and ti = ref 0. in
        for r = 0 to d - 1 do
          let s = signs.(z land r) in
          tr := !tr +. (s *. cre.(((r lxor x) * d) + r));
          ti := !ti +. (s *. cim.(((r lxor x) * d) + r))
        done;
        let w = (!tr *. !tr) +. (!ti *. !ti) in
        if w > !best_w then begin
          best := (x * d) + z;
          best_w := w;
          best_re := !tr;
          best_im := !ti
        end
      done
    done;
    if !best < 0 then raise Not_clifford;
    let x = !best / d and z = !best mod d in
    (* i^e nearest the coefficient; a conjugated Hermitian Pauli is
       Hermitian, so e has the parity of x.z (its Y count). *)
    let e =
      if Float.abs !best_re >= Float.abs !best_im then if !best_re > 0. then 0 else 2
      else if !best_im > 0. then 1
      else 3
    in
    if parity (x land z) <> (e land 1 = 1) then raise Not_clifford;
    let pr = match e with 0 -> 1. | 2 -> -1. | _ -> 0. in
    let pi = match e with 1 -> 1. | 3 -> -1. | _ -> 0. in
    for a = 0 to d - 1 do
      for b = 0 to d - 1 do
        let s = if a = b lxor x then signs.(z land b) else 0. in
        let i = (a * d) + b in
        if Float.hypot (cre.(i) -. (s *. pr)) (cim.(i) -. (s *. pi)) > eps then
          raise Not_clifford
      done
    done;
    let bit j m = (m lsr (k - 1 - j)) land 1 = 1 in
    { e; x = Array.init k (fun j -> bit j x); z = Array.init k (fun j -> bit j z) }
  in
  try
    let img_x = Array.init k (fun j -> image ~xp:(1 lsl (k - 1 - j)) ~zp:0) in
    let img_z = Array.init k (fun j -> image ~xp:0 ~zp:(1 lsl (k - 1 - j))) in
    let bits = 2 * k in
    let table =
      Array.init (1 lsl bits) (fun code ->
          let acc = { e = 0; x = Array.make k false; z = Array.make k false } in
          for j = 0 to k - 1 do
            if (code lsr (2 * j)) land 1 = 1 then mul_into acc img_x.(j);
            if (code lsr ((2 * j) + 1)) land 1 = 1 then mul_into acc img_z.(j)
          done;
          let out = ref (acc.e lsl bits) in
          for j = 0 to k - 1 do
            if acc.x.(j) then out := !out lor (1 lsl (2 * j));
            if acc.z.(j) then out := !out lor (1 lsl ((2 * j) + 1))
          done;
          !out)
    in
    Some table
  with Not_clifford -> None

let gate_action g =
  match g with
  | Ir.Gate.Measure _ -> invalid_arg "Tableau: Measure has no unitary action"
  | Ir.Gate.Ccx _ | Ir.Gate.Cswap _ -> None
  | Ir.Gate.One (og, _) -> derive_action 1 (Ir.Matrices.one_q og)
  | Ir.Gate.Two (tg, _, _) -> derive_action 2 (Ir.Matrices.two_q tg)

let is_clifford_gate g =
  match g with
  | Ir.Gate.Measure _ -> false
  | _ -> gate_action g <> None

module Action = struct
  type t = action

  let of_gate = gate_action

  (* Each distinct gate shape (operands normalized to slots 0..k-1) is
     derived once per call. *)
  let prefix gates =
    let derived = Hashtbl.create 16 in
    let derive s =
      match Hashtbl.find_opt derived s with
      | Some a -> a
      | None ->
          let a = gate_action s in
          Hashtbl.add derived s a;
          a
    in
    let action = function
      | Ir.Gate.One (og, _) -> derive (Ir.Gate.One (og, 0))
      | Ir.Gate.Two (tg, _, _) -> derive (Ir.Gate.Two (tg, 0, 1))
      | Ir.Gate.Measure _ | Ir.Gate.Ccx _ | Ir.Gate.Cswap _ -> None
    in
    let n = Array.length gates in
    let acts = Array.make n [||] in
    let rec go i =
      if i = n then i
      else match action gates.(i) with Some a -> acts.(i) <- a; go (i + 1) | None -> i
    in
    Array.sub acts 0 (go 0)
end

(* Compiled gate application: the action's table bound to its operand
   qubits, so the per-row update is one table read and a few bit writes
   with no allocation. *)
type app =
  | App1 of { tab : int array; q : int }
  | App2 of { tab : int array; a : int; b : int }

let compile_action tab qs =
  match qs with
  | [| q |] -> App1 { tab; q }
  | [| a; b |] -> App2 { tab; a; b }
  | _ -> invalid_arg "Tableau.compile_action: 1Q/2Q actions only"

let apply_app t app =
  match app with
  | App1 { tab; q } ->
      let upd r =
        let code = (if r.x.(q) then 1 else 0) lor (if r.z.(q) then 2 else 0) in
        let v = tab.(code) in
        r.x.(q) <- v land 1 <> 0;
        r.z.(q) <- v land 2 <> 0;
        r.e <- (r.e + (v lsr 2)) land 3
      in
      Array.iter upd t.destab;
      Array.iter upd t.stab
  | App2 { tab; a; b } ->
      let upd r =
        let code =
          (if r.x.(a) then 1 else 0)
          lor (if r.z.(a) then 2 else 0)
          lor (if r.x.(b) then 4 else 0)
          lor (if r.z.(b) then 8 else 0)
        in
        let v = tab.(code) in
        r.x.(a) <- v land 1 <> 0;
        r.z.(a) <- v land 2 <> 0;
        r.x.(b) <- v land 4 <> 0;
        r.z.(b) <- v land 8 <> 0;
        r.e <- (r.e + (v lsr 4)) land 3
      in
      Array.iter upd t.destab;
      Array.iter upd t.stab

(* Conjugate one Pauli, given as qubit-indexed bit masks (bit q = qubit
   q), by a compiled gate, dropping the phase. *)
let conjugate_masks app ~xm ~zm =
  match app with
  | App1 { tab; q } ->
      let code = ((xm lsr q) land 1) lor (((zm lsr q) land 1) lsl 1) in
      let v = tab.(code) in
      let bit = 1 lsl q in
      let xm = if v land 1 <> 0 then xm lor bit else xm land lnot bit in
      let zm = if v land 2 <> 0 then zm lor bit else zm land lnot bit in
      (xm, zm)
  | App2 { tab; a; b } ->
      let code =
        ((xm lsr a) land 1)
        lor (((zm lsr a) land 1) lsl 1)
        lor (((xm lsr b) land 1) lsl 2)
        lor (((zm lsr b) land 1) lsl 3)
      in
      let v = tab.(code) in
      let ba = 1 lsl a and bb = 1 lsl b in
      let xm = if v land 1 <> 0 then xm lor ba else xm land lnot ba in
      let zm = if v land 2 <> 0 then zm lor ba else zm land lnot ba in
      let xm = if v land 4 <> 0 then xm lor bb else xm land lnot bb in
      let zm = if v land 8 <> 0 then zm lor bb else zm land lnot bb in
      (xm, zm)

let apply t g =
  let qs = Array.of_list (Ir.Gate.qubits g) in
  Array.iter (check_qubit t) qs;
  match gate_action g with
  | None -> false
  | Some act ->
      apply_app t (compile_action act qs);
      true

(* The measure-free gates of [c] and the actions of their Clifford
   prefix. *)
let body_prefix c =
  let gates = Array.of_list (List.filter (fun g -> not (Ir.Gate.is_measure g)) c.Ir.Circuit.gates) in
  (gates, Action.prefix gates)

let of_circuit c =
  let t = init c.Ir.Circuit.n_qubits in
  let gates, acts = body_prefix c in
  if Array.length acts < Array.length gates then None
  else begin
    Array.iteri
      (fun i act -> apply_app t (compile_action act (Array.of_list (Ir.Gate.qubits gates.(i)))))
      acts;
    Some t
  end

let clifford_prefix c = Array.length (snd (body_prefix c))

(* Index of the first row at or after [from] satisfying [pred], or -1. *)
let find_row rows ~from pred =
  let rec go i = if i >= Array.length rows then -1 else if pred rows.(i) then i else go (i + 1) in
  go from

let measure t q rng =
  check_qubit t q;
  let p = find_row t.stab ~from:0 (fun r -> r.x.(q)) in
  if p >= 0 then begin
    (* Random outcome: some stabilizer anticommutes with Z_q. Multiply
       every other row that anticommutes by the pivot (products of two
       anticommuting-with-Z_q rows commute with it), remember the pivot
       as the new destabilizer, and install +/-Z_q as the new pivot
       stabilizer with a fair coin deciding the sign. *)
    let sp = copy_row t.stab.(p) in
    Array.iter (fun r -> if r.x.(q) then mul_into r sp) t.destab;
    Array.iteri (fun i r -> if i <> p && r.x.(q) then mul_into r sp) t.stab;
    let m = Rng.bool rng 0.5 in
    t.destab.(p) <- sp;
    t.stab.(p) <- { (unit_row t.n ~x:false q) with e = (if m then 2 else 0) };
    m
  end
  else begin
    (* Deterministic outcome: +/-Z_q is in the stabilizer group; its
       expansion multiplies the stabilizers whose destabilizer partners
       anticommute with Z_q. The product is exactly +/-Z_q, so the
       phase exponent is 0 or 2. *)
    let scratch = { e = 0; x = Array.make t.n false; z = Array.make t.n false } in
    for i = 0 to t.n - 1 do
      if t.destab.(i).x.(q) then mul_into scratch t.stab.(i)
    done;
    scratch.e = 2
  end

let measure_all t rng =
  let idx = ref 0 in
  for q = 0 to t.n - 1 do
    if measure t q rng then idx := !idx lor (1 lsl (t.n - 1 - q))
  done;
  !idx

(* ------------------------------------------------------------------ *)
(* Elimination, canonical form and equality.                           *)
(* ------------------------------------------------------------------ *)

(* Gauss-Jordan elimination of the Pauli rows [rows.(from..)] in place,
   pivoting on each GF(2) column of [cols] in turn (column c < n is x_c,
   otherwise z_{c-n}) and clearing it from every other row at or after
   [from]. Row operations are Pauli products, so phases follow the group
   structure. Returns the index one past the last pivot row. *)
let eliminate rows ~from cols =
  let m = Array.length rows in
  let r = ref from in
  List.iter
    (fun col ->
      if !r < m then begin
        let n = Array.length rows.(0).x in
        let bit row = if col < n then row.x.(col) else row.z.(col - n) in
        let pivot = find_row rows ~from:!r bit in
        if pivot >= 0 then begin
          let tmp = rows.(!r) in
          rows.(!r) <- rows.(pivot);
          rows.(pivot) <- tmp;
          for i = from to m - 1 do
            if i <> !r && bit rows.(i) then mul_into rows.(i) rows.(!r)
          done;
          incr r
        end
      end)
    cols;
  !r

(* Reduced row-echelon form over all 2n columns x_0..x_{n-1},
   z_0..z_{n-1}: a group contains each bit pattern with exactly one
   sign, making the result canonical. *)
let canonical_rows t =
  let rows = Array.map copy_row t.stab in
  ignore (eliminate rows ~from:0 (List.init (2 * t.n) Fun.id));
  rows

let canonicalize t = Array.to_list (Array.map to_generator (canonical_rows t))

let row_equal a b = a.e = b.e && a.x = b.x && a.z = b.z

let equal a b =
  a.n = b.n && Array.for_all2 row_equal (canonical_rows a) (canonical_rows b)

(* The subgroup of stabilizers with no X component on any wire of
   [measured], as a canonical basis. Z-basis dephasing on [measured]
   kills exactly the Pauli terms with X/Y there, so this subgroup is the
   complete invariant of the state once those wires are read out: it
   determines the joint outcome distribution and the conditional states
   on the remaining wires. Computed by eliminating the measured X
   columns; the rows left X-free span the kernel by rank-nullity. *)
let dephased_rows t ~measured =
  List.iter
    (fun w ->
      if w < 0 || w >= t.n then invalid_arg "Tableau: measured wire out of range")
    measured;
  let rows = Array.map copy_row t.stab in
  let r = eliminate rows ~from:0 (List.sort_uniq Stdlib.compare measured) in
  ignore (eliminate rows ~from:r (List.init (2 * t.n) Fun.id));
  Array.sub rows r (t.n - r)

let dephase t ~measured = Array.to_list (Array.map to_generator (dephased_rows t ~measured))

let measurement_equal a b ~measured =
  a.n = b.n
  &&
  let ra = dephased_rows a ~measured and rb = dephased_rows b ~measured in
  Array.length ra = Array.length rb && Array.for_all2 row_equal ra rb

let generator_to_string (e, x, z) =
  let n = Array.length x in
  let ys = ref 0 in
  for q = 0 to n - 1 do
    if x.(q) && z.(q) then incr ys
  done;
  let sign =
    match (e - !ys) land 3 with
    | 0 -> "+"
    | 1 -> "+i"
    | 2 -> "-"
    | _ -> "-i"
  in
  let buf = Buffer.create (n + 2) in
  Buffer.add_string buf sign;
  for q = 0 to n - 1 do
    Buffer.add_char buf
      (match (x.(q), z.(q)) with
      | false, false -> 'I'
      | true, false -> 'X'
      | false, true -> 'Z'
      | true, true -> 'Y')
  done;
  Buffer.contents buf

let first_difference ?(measured = []) a b =
  if a.n <> b.n then
    Some (Printf.sprintf "qubit counts differ (%d vs %d)" a.n b.n)
  else
    let ra =
      if measured = [] then canonical_rows a else dephased_rows a ~measured
    and rb =
      if measured = [] then canonical_rows b else dephased_rows b ~measured
    in
    if Array.length ra <> Array.length rb then
      Some
        (Printf.sprintf "stabilizer ranks differ (%d vs %d)" (Array.length ra)
           (Array.length rb))
    else
      let rec find i =
        if i >= Array.length ra then None
        else if row_equal ra.(i) rb.(i) then find (i + 1)
        else
          Some
            (Printf.sprintf "%s vs %s"
               (generator_to_string (to_generator ra.(i)))
               (generator_to_string (to_generator rb.(i))))
      in
      find 0

let embed t ~n ~map =
  if Array.length map <> t.n then
    invalid_arg "Tableau.embed: map length must equal qubit count";
  let seen = Array.make n false in
  Array.iter
    (fun q ->
      if q < 0 || q >= n then invalid_arg "Tableau.embed: map image out of range";
      if seen.(q) then invalid_arg "Tableau.embed: map is not injective";
      seen.(q) <- true)
    map;
  let remap row =
    let x = Array.make n false and z = Array.make n false in
    for q = 0 to t.n - 1 do
      x.(map.(q)) <- row.x.(q);
      z.(map.(q)) <- row.z.(q)
    done;
    { e = row.e; x; z }
  in
  let fresh = List.filter (fun q -> not seen.(q)) (List.init n Fun.id) in
  let rows old ~x =
    Array.append (Array.map remap old) (Array.of_list (List.map (unit_row n ~x) fresh))
  in
  { n; destab = rows t.destab ~x:true; stab = rows t.stab ~x:false }

(* ------------------------------------------------------------------ *)
(* Dense read-out: support enumeration under Pauli sign noise.         *)
(* ------------------------------------------------------------------ *)

let max_dense = 24

(* Qubit-indexed mask of a bit-vector (bit q = qubit q), and the
   basis-index mask where qubit q is bit (n-1-q), matching
   {!Ir.Matrices}. *)
let qubit_mask bits =
  let m = ref 0 in
  Array.iteri (fun q b -> if b then m := !m lor (1 lsl q)) bits;
  !m

let basis_mask bits =
  let n = Array.length bits in
  let m = ref 0 in
  Array.iteri (fun q b -> if b then m := !m lor (1 lsl (n - 1 - q))) bits;
  !m

let rec ctz x = if x land 1 = 1 then 0 else 1 + ctz (x lsr 1)

(* Conjugating a stabilizer state by a Pauli only flips row signs, so
   every noisy-Clifford-trajectory output shares one support
   *structure* with the ideal state: the same pivot-row span, only the
   affine base point moves. [readout] freezes that structure once (the
   X-block echelon, then the reduced Z rows); [readout_probabilities]
   then prices a trajectory at O(m) bit operations plus the 2^s support
   walk — no tableau evolution, no echelon, no solve. *)
type readout = {
  rn : int;
  pivots : row array;  (* X-pivot rows: the support's linear span *)
  xmasks : int array;  (* pivot-row X vectors as basis-index masks *)
  zq : int array;  (* reduced Z rows' Z vectors as qubit-indexed masks *)
  zcols : int array;  (* each reduced Z row's pivot qubit *)
  signs : int;  (* bit i set: reduced Z row i is negative in the clean state *)
}

(* After the X-block echelon the first [s] rows carry X-pivots at
   distinct qubits and the rest are X-free. Those are +/- pure-Z
   operators (phase exponent 0 or 2 — an X-free Pauli has no Y factor,
   and an odd exponent would make it non-Hermitian), so each imposes the
   parity constraint z . u = e/2 (mod 2) on the support. Reducing them
   over the Z block is the Gauss-Jordan solve of that system (products
   of pure-Z rows add their signs); the base point sets each pivot qubit
   to its row's sign and every free qubit to zero. *)
let readout t =
  if t.n > max_dense then invalid_arg "Tableau: too many qubits for dense read-out";
  let rows = Array.map copy_row t.stab in
  let s = eliminate rows ~from:0 (List.init t.n Fun.id) in
  for i = s to t.n - 1 do
    if rows.(i).e land 1 <> 0 then invalid_arg "Tableau: malformed tableau"
  done;
  let rank = eliminate rows ~from:s (List.init t.n (fun q -> t.n + q)) in
  (* Null reduced rows (products of Z rows that cancel) must be +I; sign
     flips preserve this because a Pauli commutes with the identity. *)
  for i = rank to t.n - 1 do
    if rows.(i).e <> 0 then invalid_arg "Tableau: inconsistent tableau"
  done;
  let pivots = Array.sub rows 0 s and zrows = Array.sub rows s (rank - s) in
  let zq = Array.map (fun r -> qubit_mask r.z) zrows in
  let signs = ref 0 in
  Array.iteri (fun i r -> if r.e = 2 then signs := !signs lor (1 lsl i)) zrows;
  {
    rn = t.n;
    pivots;
    xmasks = Array.map (fun r -> basis_mask r.x) pivots;
    zq;
    zcols = Array.map ctz zq;
    signs = !signs;
  }

(* A Z row has no X part, so a Pauli P anticommutes with it iff P's X
   mask overlaps the row's Z support on an odd number of qubits. *)
let flip_mask r ~xm =
  let f = ref 0 in
  for i = 0 to Array.length r.zq - 1 do
    if parity (xm land r.zq.(i)) then f := !f lor (1 lsl i)
  done;
  !f

(* Basis index of the support's base point under [flips]. *)
let base_index r ~flips =
  let signs = r.signs lxor flips in
  let idx = ref 0 in
  for i = 0 to Array.length r.zcols - 1 do
    if (signs lsr i) land 1 = 1 then idx := !idx lor (1 lsl (r.rn - 1 - r.zcols.(i)))
  done;
  !idx

(* The support is the affine space base + span{x-vectors of the pivot
   rows} (2^s points, each of probability exactly 2^-s); a reflected
   Gray code visits it flipping one generator per step. *)
let add_readout_probabilities r ~flips acc =
  if Array.length acc <> 1 lsl r.rn then
    invalid_arg "Tableau.add_readout_probabilities: length must be 2^n";
  let s = Array.length r.xmasks in
  let p = 1.0 /. float_of_int (1 lsl s) in
  let idx = ref (base_index r ~flips) in
  acc.(!idx) <- acc.(!idx) +. p;
  for cnt = 1 to (1 lsl s) - 1 do
    idx := !idx lxor r.xmasks.(ctz cnt);
    acc.(!idx) <- acc.(!idx) +. p
  done

let readout_probabilities r ~flips =
  let probs = Array.make (1 lsl r.rn) 0.0 in
  add_readout_probabilities r ~flips probs;
  probs

let probabilities t = readout_probabilities (readout t) ~flips:0

(* Same walk carrying the phase: a pivot row g = i^e X^x Z^z stabilizes
   the state, so amplitude(u xor x) = i^e * (-1)^(z.u) * amplitude(u);
   with amplitude(base) fixed real-positive (global phase is free),
   every amplitude is 2^(-s/2) times a power of i. *)
let amplitudes t =
  let r = readout t in
  let s = Array.length r.pivots in
  let dim = 1 lsl t.n in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  let amp = 1.0 /. sqrt (float_of_int (1 lsl s)) in
  let zmasks = Array.map (fun p -> basis_mask p.z) r.pivots in
  let set idx ph =
    match ph with
    | 0 -> re.(idx) <- amp
    | 1 -> im.(idx) <- amp
    | 2 -> re.(idx) <- -.amp
    | _ -> im.(idx) <- -.amp
  in
  let idx = ref (base_index r ~flips:0) and ph = ref 0 in
  set !idx 0;
  for cnt = 1 to (1 lsl s) - 1 do
    let j = ctz cnt in
    ph := (!ph + r.pivots.(j).e + if parity (zmasks.(j) land !idx) then 2 else 0) land 3;
    idx := !idx lxor r.xmasks.(j);
    set !idx !ph
  done;
  (re, im)
