module M = Mathkit.Matrix

type t = { n : int; re : float array; im : float array }

let max_qubits = 24

let init n =
  if n < 1 || n > max_qubits then invalid_arg "Statevector.init: n out of range";
  let dim = 1 lsl n in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  re.(0) <- 1.0;
  { n; re; im }

let n_qubits t = t.n

let of_tableau tab =
  let re, im = Dataflow.Tableau.amplitudes tab in
  { n = Dataflow.Tableau.n_qubits tab; re; im }

let copy t = { n = t.n; re = Array.copy t.re; im = Array.copy t.im }

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Statevector.blit: size mismatch";
  let dim = 1 lsl src.n in
  Array.blit src.re 0 dst.re 0 dim;
  Array.blit src.im 0 dst.im 0 dim

let amplitude t i = Mathkit.Cplx.make t.re.(i) t.im.(i)

let[@inline] probability t i = (t.re.(i) *. t.re.(i)) +. (t.im.(i) *. t.im.(i))

let add_probabilities t acc =
  if Array.length acc <> 1 lsl t.n then
    invalid_arg "Statevector.add_probabilities: length must be 2^n";
  for i = 0 to (1 lsl t.n) - 1 do
    acc.(i) <- acc.(i) +. probability t i
  done

(* Every probability is non-negative and 0.0 +. p = p, so this is
   bit-identical to evaluating [probability] per index. *)
let probabilities t =
  let p = Array.make (1 lsl t.n) 0.0 in
  add_probabilities t p;
  p

let norm2 t =
  let acc = ref 0.0 in
  for i = 0 to (1 lsl t.n) - 1 do
    acc := !acc +. probability t i
  done;
  !acc

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg "Statevector: qubit out of range"

let check_pair t a b =
  check_qubit t a;
  check_qubit t b;
  if a = b then invalid_arg "Statevector: identical qubits"

(* ------------------------------------------------------------------ *)
(* Kernel loops. Each reads its coefficients from a flat float array   *)
(* once per call and allocates nothing.                                *)
(* ------------------------------------------------------------------ *)

(* [m] = [| re a00; re a01; re a10; re a11; im a00; im a01; im a10; im a11 |]. *)
let dense_one t (m : float array) q =
  check_qubit t q;
  let r00 = m.(0) and r01 = m.(1) and r10 = m.(2) and r11 = m.(3) in
  let i00 = m.(4) and i01 = m.(5) and i10 = m.(6) and i11 = m.(7) in
  let dim = 1 lsl t.n in
  let stride = 1 lsl (t.n - 1 - q) in
  let re = t.re and im = t.im in
  let idx = ref 0 in
  while !idx < dim do
    (* Iterate over indices whose q-bit is 0 within each block. *)
    let block_end = !idx + stride in
    while !idx < block_end do
      let i0 = !idx in
      let i1 = i0 + stride in
      let xr = re.(i0) and xi = im.(i0) and yr = re.(i1) and yi = im.(i1) in
      re.(i0) <- (r00 *. xr) -. (i00 *. xi) +. (r01 *. yr) -. (i01 *. yi);
      im.(i0) <- (r00 *. xi) +. (i00 *. xr) +. (r01 *. yi) +. (i01 *. yr);
      re.(i1) <- (r10 *. xr) -. (i10 *. xi) +. (r11 *. yr) -. (i11 *. yi);
      im.(i1) <- (r10 *. xi) +. (i10 *. xr) +. (r11 *. yi) +. (i11 *. yr);
      incr idx
    done;
    idx := !idx + stride
  done

(* [m.(4r + c)] and [m.(16 + 4r + c)] are the real and imaginary parts
   of entry [(r, c)]. Row [r] accumulates from 0.0 in column order,
   [acc + re * xr - im * xi], so the sum rounds as a plain 4x4 product
   does. *)
let dense_two t (m : float array) a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let re = t.re and im = t.im in
  (* Enumerate the dim/4 group representatives (both bits 0) directly:
     split the index into the runs of bits above, between and below the
     two strides, skipping the set-bit halves block-wise. *)
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let h = ref 0 in
  while !h < dim do
    let m_ = ref !h in
    let mid_end = !h + sh in
    while !m_ < mid_end do
      let base = ref !m_ in
      let low_end = !m_ + sl in
      while !base < low_end do
        let j0 = !base in
        let j1 = j0 lor sb and j2 = j0 lor sa in
        let j3 = j2 lor sb in
        let x0r = re.(j0) and x0i = im.(j0) and x1r = re.(j1) and x1i = im.(j1) in
        let x2r = re.(j2) and x2i = im.(j2) and x3r = re.(j3) and x3i = im.(j3) in
        for r = 0 to 3 do
          let k = 4 * r in
          let accr =
            0.0 +. (m.(k) *. x0r) -. (m.(k + 16) *. x0i)
            +. (m.(k + 1) *. x1r) -. (m.(k + 17) *. x1i)
            +. (m.(k + 2) *. x2r) -. (m.(k + 18) *. x2i)
            +. (m.(k + 3) *. x3r) -. (m.(k + 19) *. x3i)
          in
          let acci =
            0.0 +. (m.(k) *. x0i) +. (m.(k + 16) *. x0r)
            +. (m.(k + 1) *. x1i) +. (m.(k + 17) *. x1r)
            +. (m.(k + 2) *. x2i) +. (m.(k + 18) *. x2r)
            +. (m.(k + 3) *. x3i) +. (m.(k + 19) *. x3r)
          in
          let j = if r = 0 then j0 else if r = 1 then j1 else if r = 2 then j2 else j3 in
          re.(j) <- accr;
          im.(j) <- acci
        done;
        incr base
      done;
      m_ := !m_ + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

(* Permutation and sign kernels touch (or move) each amplitude once,
   with no 4x4 product. *)

let cnot t c x =
  check_pair t c x;
  let dim = 1 lsl t.n in
  let sc = 1 lsl (t.n - 1 - c) and sx = 1 lsl (t.n - 1 - x) in
  let sl = if sc < sx then sc else sx in
  let sh = if sc < sx then sx else sc in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        let i10 = !base lor sc in
        let i11 = i10 lor sx in
        let r = re.(i10) and i = im.(i10) in
        re.(i10) <- re.(i11);
        im.(i10) <- im.(i11);
        re.(i11) <- r;
        im.(i11) <- i;
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let cz t a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        let i11 = !base lor sa lor sb in
        re.(i11) <- -.re.(i11);
        im.(i11) <- -.im.(i11);
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let swap t a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        let i01 = !base lor sb and i10 = !base lor sa in
        let r = re.(i01) and i = im.(i01) in
        re.(i01) <- re.(i10);
        im.(i01) <- im.(i10);
        re.(i10) <- r;
        im.(i10) <- i;
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let iswap t a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        (* |01> -> i|10>, |10> -> i|01>: swap then multiply by i. *)
        let i01 = !base lor sb and i10 = !base lor sa in
        let r01 = re.(i01) and x01 = im.(i01) in
        let r10 = re.(i10) and x10 = im.(i10) in
        re.(i01) <- -.x10;
        im.(i01) <- r10;
        re.(i10) <- -.x01;
        im.(i10) <- r01;
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

(* A Pauli string X^x Z^z as one pass: amplitude [j] moves to [j xor x]
   and is negated when [j] has odd overlap with [z] (Z acts first). Each
   pair [(j, j xor x)] is visited once, from its lower index. *)
let apply_pauli t ~x ~z =
  let basis mask =
    let b = ref 0 in
    for q = 0 to t.n - 1 do
      if (mask lsr q) land 1 = 1 then b := !b lor (1 lsl (t.n - 1 - q))
    done;
    !b
  in
  if x lsr t.n <> 0 || z lsr t.n <> 0 then invalid_arg "Statevector.apply_pauli: qubit out of range";
  let bx = basis x and bz = basis z in
  let odd j =
    let v = ref (j land bz) and p = ref false in
    while !v <> 0 do
      p := not !p;
      v := !v land (!v - 1)
    done;
    !p
  in
  let re = t.re and im = t.im in
  for j = 0 to (1 lsl t.n) - 1 do
    let j' = j lxor bx in
    if j' >= j then begin
      let r = re.(j) and i = im.(j) and r' = re.(j') and i' = im.(j') in
      let nj = odd j and nj' = odd j' in
      re.(j') <- (if nj then -.r else r);
      im.(j') <- (if nj then -.i else i);
      re.(j) <- (if nj' then -.r' else r');
      im.(j) <- (if nj' then -.i' else i')
    end
  done

(* [d] = [| re d0; re d1; im d0; im d1 |]. *)
let diag_one t (d : float array) q =
  check_qubit t q;
  let d0r = d.(0) and d1r = d.(1) and d0i = d.(2) and d1i = d.(3) in
  let dim = 1 lsl t.n in
  let stride = 1 lsl (t.n - 1 - q) in
  let re = t.re and im = t.im in
  let idx = ref 0 in
  while !idx < dim do
    let block_end = !idx + stride in
    while !idx < block_end do
      let i0 = !idx in
      let i1 = i0 + stride in
      let r0 = re.(i0) and x0 = im.(i0) in
      re.(i0) <- (d0r *. r0) -. (d0i *. x0);
      im.(i0) <- (d0r *. x0) +. (d0i *. r0);
      let r1 = re.(i1) and x1 = im.(i1) in
      re.(i1) <- (d1r *. r1) -. (d1i *. x1);
      im.(i1) <- (d1r *. x1) +. (d1i *. r1);
      incr idx
    done;
    idx := !idx + stride
  done

let diag_table t ~n ~shifts ~(fr : float array) ~(fi : float array) =
  if t.n <> n then invalid_arg "Statevector.apply: diagonal table built for another size";
  let k = Array.length shifts in
  let dim = 1 lsl t.n in
  let re = t.re and im = t.im in
  for idx = 0 to dim - 1 do
    let key = ref 0 in
    for j = 0 to k - 1 do
      key := (!key lsl 1) lor ((idx lsr shifts.(j)) land 1)
    done;
    let cr = fr.(!key) and ci = fi.(!key) in
    let r = re.(idx) and x = im.(idx) in
    re.(idx) <- (cr *. r) -. (ci *. x);
    im.(idx) <- (cr *. x) +. (ci *. r)
  done

module Kernel = struct
  type t =
    | Dense1 of { q : int; m : float array }
    | Diag1 of { q : int; d : float array }
    | Cnot of { c : int; x : int }
    | Cz of { a : int; b : int }
    | Swap of { a : int; b : int }
    | Iswap of { a : int; b : int }
    | Dense2 of { a : int; b : int; m : float array }
    | Diag_table of { n : int; shifts : int array; fr : float array; fi : float array }

  let check_wire q = if q < 0 then invalid_arg "Statevector.Kernel: negative qubit"

  let check_wires a b =
    check_wire a;
    check_wire b;
    if a = b then invalid_arg "Statevector.Kernel: identical qubits"

  (* Real parts in row-major order, then the imaginary parts. *)
  let coeffs size (m : M.t) =
    if M.rows m <> size || M.cols m <> size then
      invalid_arg (Printf.sprintf "Statevector.Kernel: not %dx%d" size size);
    let cells = size * size in
    let a = Array.make (2 * cells) 0.0 in
    for r = 0 to size - 1 do
      for c = 0 to size - 1 do
        let z = M.get m r c in
        a.((r * size) + c) <- z.re;
        a.(cells + (r * size) + c) <- z.im
      done
    done;
    a

  let dense_one m q =
    check_wire q;
    Dense1 { q; m = coeffs 2 m }

  (* Structural diagonality: the off-diagonal entries must be exactly
     zero. Products of exactly-diagonal matrices stay exactly diagonal,
     so Rz/U1/S/T runs qualify. *)
  let one_q m q =
    match dense_one m q with
    | Dense1 { m; _ } when m.(1) = 0.0 && m.(2) = 0.0 && m.(5) = 0.0 && m.(6) = 0.0 ->
      Diag1 { q; d = [| m.(0); m.(3); m.(4); m.(7) |] }
    | k -> k

  let dense_two m a b =
    check_wires a b;
    Dense2 { a; b; m = coeffs 4 m }

  (* Negating the imaginary half gives the floats [Cplx.conj] would. *)
  let conj k ~offset =
    let conj_coeffs m =
      let half = Array.length m / 2 in
      Array.mapi (fun i x -> if i < half then x else -.x) m
    in
    match k with
    | Dense1 { q; m } ->
      check_wire (q + offset);
      Dense1 { q = q + offset; m = conj_coeffs m }
    | Dense2 { a; b; m } ->
      check_wires (a + offset) (b + offset);
      Dense2 { a = a + offset; b = b + offset; m = conj_coeffs m }
    | Diag1 _ | Cnot _ | Cz _ | Swap _ | Iswap _ | Diag_table _ ->
      invalid_arg "Statevector.Kernel.conj: not a dense kernel"

  let of_gate (g : Ir.Gate.t) m =
    match g with
    | One (_, q) -> one_q m q
    | Two (kind, a, b) -> (
      check_wires a b;
      match kind with
      | Cnot -> Cnot { c = a; x = b }
      | Cz -> Cz { a; b }
      | Swap -> Swap { a; b }
      | Iswap -> Iswap { a; b }
      | Xx _ -> dense_two m a b)
    | Measure _ | Ccx _ | Cswap _ -> invalid_arg "Statevector.Kernel.of_gate: not a 1Q or 2Q gate"

  let diag_table ~n ~qs ~fr ~fi =
    let k = Array.length qs in
    if k < 1 || k > 16 then invalid_arg "Statevector.Kernel.diag_table: 1-16 wires";
    if Array.length fr <> 1 lsl k || Array.length fi <> 1 lsl k then
      invalid_arg "Statevector.Kernel.diag_table: table length must be 2^wires";
    Array.iter
      (fun q ->
        if q < 0 || q >= n then invalid_arg "Statevector.Kernel.diag_table: qubit out of range")
      qs;
    Diag_table { n; shifts = Array.map (fun q -> n - 1 - q) qs; fr; fi }
end

let apply t (k : Kernel.t) =
  match k with
  | Dense1 { q; m } -> dense_one t m q
  | Diag1 { q; d } -> diag_one t d q
  | Cnot { c; x } -> cnot t c x
  | Cz { a; b } -> cz t a b
  | Swap { a; b } -> swap t a b
  | Iswap { a; b } -> iswap t a b
  | Dense2 { a; b; m } -> dense_two t m a b
  | Diag_table { n; shifts; fr; fi } -> diag_table t ~n ~shifts ~fr ~fi

let apply_one t m q = dense_one t (Kernel.coeffs 2 m) q
let apply_two t m a b = dense_two t (Kernel.coeffs 4 m) a b

let rec apply_gate t (g : Ir.Gate.t) =
  match g with
  | One (k, q) -> apply_one t (Ir.Matrices.one_q k) q
  | Two (k, a, b) -> apply_two t (Ir.Matrices.two_q k) a b
  | Ccx (a, b, c) ->
    (* Phase-free permutation: apply via its decomposition on the state. *)
    List.iter (apply_gate t) (Ir.Decompose.ccx a b c)
  | Cswap (a, b, c) -> List.iter (apply_gate t) (Ir.Decompose.cswap a b c)
  | Measure _ -> invalid_arg "Statevector.apply_gate: Measure"

let run (c : Ir.Circuit.t) =
  let t = init c.Ir.Circuit.n_qubits in
  List.iter
    (fun g -> if not (Ir.Gate.is_measure g) then apply_gate t g)
    c.Ir.Circuit.gates;
  t

let cdf_index cumulative target =
  let dim = Array.length cumulative in
  if dim = 0 then invalid_arg "Statevector.cdf_index: empty table";
  (* Smallest index whose cumulative mass strictly exceeds [target]. The
     comparison must be strict: with [>=], a draw of exactly 0.0 — or one
     landing exactly on a cumulative edge — selects the bucket *ending* at
     that edge, which can be a zero-probability outcome. *)
  let lo = ref 0 and hi = ref (dim - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumulative.(mid) > target then hi := mid else lo := mid + 1
  done;
  (* If rounding pushed [target] to (or past) the final cumulative value,
     the search falls through to the last bucket even when it carries no
     mass; walk back to the last bucket with positive mass. *)
  let i = ref !lo in
  while !i > 0 && cumulative.(!i) <= cumulative.(!i - 1) do
    decr i
  done;
  !i

let sampler t =
  (* One O(2^n) pass builds the cumulative table (subsuming the norm2
     scan); every draw is then an O(n) binary search. *)
  let dim = 1 lsl t.n in
  let cumulative = Array.make dim 0.0 in
  let acc = ref 0.0 in
  for i = 0 to dim - 1 do
    acc := !acc +. probability t i;
    cumulative.(i) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let target = Mathkit.Rng.float rng *. total in
    cdf_index cumulative target

let scale t c =
  for i = 0 to (1 lsl t.n) - 1 do
    t.re.(i) <- c *. t.re.(i);
    t.im.(i) <- c *. t.im.(i)
  done

let add_scaled dst c src =
  if dst.n <> src.n then invalid_arg "Statevector.add_scaled: size mismatch";
  for i = 0 to (1 lsl dst.n) - 1 do
    dst.re.(i) <- dst.re.(i) +. (c *. src.re.(i));
    dst.im.(i) <- dst.im.(i) +. (c *. src.im.(i))
  done

let zero_like t =
  { n = t.n; re = Array.make (1 lsl t.n) 0.0; im = Array.make (1 lsl t.n) 0.0 }

let excited_population t q =
  check_qubit t q;
  let stride = 1 lsl (t.n - 1 - q) in
  let dim = 1 lsl t.n in
  let acc = ref 0.0 in
  let idx = ref 0 in
  while !idx < dim do
    let block_end = !idx + stride in
    while !idx < block_end do
      let i1 = !idx + stride in
      acc := !acc +. (t.re.(i1) *. t.re.(i1)) +. (t.im.(i1) *. t.im.(i1));
      incr idx
    done;
    idx := !idx + stride
  done;
  !acc

let relax t q ~gamma rng =
  check_qubit t q;
  if gamma < 0.0 || gamma > 1.0 then invalid_arg "Statevector.relax: gamma";
  if gamma = 0.0 then false
  else begin
    let p1 = excited_population t q in
    let p_jump = gamma *. p1 in
    let stride = 1 lsl (t.n - 1 - q) in
    let dim = 1 lsl t.n in
    if Mathkit.Rng.bool rng p_jump then begin
      (* Jump: K1 = sqrt(gamma)|0><1|, then renormalize: the |1> amplitudes
         move to |0> and the old |0> amplitudes vanish. *)
      let norm = sqrt p1 in
      let idx = ref 0 in
      while !idx < dim do
        let block_end = !idx + stride in
        while !idx < block_end do
          let i0 = !idx and i1 = !idx + stride in
          t.re.(i0) <- t.re.(i1) /. norm;
          t.im.(i0) <- t.im.(i1) /. norm;
          t.re.(i1) <- 0.0;
          t.im.(i1) <- 0.0;
          incr idx
        done;
        idx := !idx + stride
      done;
      true
    end
    else begin
      (* No jump: K0 = diag(1, sqrt(1-gamma)), renormalized by
         sqrt(1 - gamma*p1). *)
      let damp = sqrt (1.0 -. gamma) in
      let norm = sqrt (1.0 -. p_jump) in
      let idx = ref 0 in
      while !idx < dim do
        let block_end = !idx + stride in
        while !idx < block_end do
          let i0 = !idx and i1 = !idx + stride in
          t.re.(i0) <- t.re.(i0) /. norm;
          t.im.(i0) <- t.im.(i0) /. norm;
          t.re.(i1) <- t.re.(i1) *. damp /. norm;
          t.im.(i1) <- t.im.(i1) *. damp /. norm;
          incr idx
        done;
        idx := !idx + stride
      done;
      false
    end
  end
