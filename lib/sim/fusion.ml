module Matrix = Mathkit.Matrix

(* One original gate inside a fused step, keyed back to its position in
   the prepared gate stream so error injection can address it. *)
type member = { idx : int; gate : Ir.Gate.t; matrix : Matrix.t }

type step =
  | Apply1 of { q : int; m : Matrix.t; members : member array }
  | Diag1 of {
      q : int;
      d0 : float * float;
      d1 : float * float;
      members : member array;
    }
  | Cnot of { c : int; x : int; members : member array }
  | Cz of { a : int; b : int; members : member array }
  | Swap of { a : int; b : int; members : member array }
  | Iswap of { a : int; b : int; members : member array }
  | Two2 of { m : Matrix.t; a : int; b : int; members : member array }
  | DiagBatch of {
      qs : int array;
      fr : float array;
      fi : float array;
      members : member array;
    }

type t = { steps : step array; n_members : int }

let step_members = function
  | Apply1 { members; _ }
  | Diag1 { members; _ }
  | Cnot { members; _ }
  | Cz { members; _ }
  | Swap { members; _ }
  | Iswap { members; _ }
  | Two2 { members; _ }
  | DiagBatch { members; _ } -> members

let n_steps t = Array.length t.steps
let steps t = t.steps

(* Structural diagonality: the off-diagonal entries must be exactly
   zero. Products of exactly-diagonal matrices stay exactly diagonal,
   so Rz/U1/S/T runs survive fusion as diagonals. *)
let diag_of m =
  let zero (c : Mathkit.Cplx.t) = c.re = 0.0 && c.im = 0.0 in
  if zero (Matrix.get m 0 1) && zero (Matrix.get m 1 0) then
    let d0 = Matrix.get m 0 0 and d1 = Matrix.get m 1 1 in
    Some ((d0.re, d0.im), (d1.re, d1.im))
  else None

(* Most diagonal gates the batcher sees come from compiled circuits'
   Rz/CZ mixtures over a handful of wires; above this many distinct
   wires the factor table stops paying for itself. *)
let max_batch_wires = 8

let is_diag_step = function Diag1 _ | Cz _ -> true | _ -> false

let batch_of run =
  (* Wires in first-appearance order become the table key, high bit
     first. *)
  let wires = ref [] in
  let add q = if not (List.mem q !wires) then wires := q :: !wires in
  List.iter
    (function
      | Diag1 { q; _ } -> add q
      | Cz { a; b; _ } ->
          add a;
          add b
      | _ -> assert false)
    run;
  let qs = Array.of_list (List.rev !wires) in
  let k = Array.length qs in
  let bit_of q =
    let rec find j = if qs.(j) = q then 1 lsl (k - 1 - j) else find (j + 1) in
    find 0
  in
  let size = 1 lsl k in
  let fr = Array.make size 1.0 and fi = Array.make size 0.0 in
  List.iter
    (fun st ->
      match st with
      | Diag1 { q; d0 = r0, i0; d1 = r1, i1; _ } ->
          let bit = bit_of q in
          for key = 0 to size - 1 do
            let cr, ci = if key land bit <> 0 then (r1, i1) else (r0, i0) in
            let r = fr.(key) and i = fi.(key) in
            fr.(key) <- (cr *. r) -. (ci *. i);
            fi.(key) <- (cr *. i) +. (ci *. r)
          done
      | Cz { a; b; _ } ->
          let ba = bit_of a and bb = bit_of b in
          for key = 0 to size - 1 do
            if key land ba <> 0 && key land bb <> 0 then begin
              fr.(key) <- -.fr.(key);
              fi.(key) <- -.fi.(key)
            end
          done
      | _ -> assert false)
    run;
  let members =
    Array.concat (List.map (fun st -> step_members st) run)
  in
  DiagBatch { qs; fr; fi; members }

(* Merge runs of >= 2 consecutive diagonal steps (at least one of them
   a real diagonal multiply — pure-CZ runs stay on the cheaper negation
   kernel) into one table sweep. *)
let batch_diagonals steps =
  let out = ref [] in
  let run = ref [] and run_len = ref 0 and run_diag1 = ref 0 and run_wires = ref [] in
  let flush_run () =
    if !run_len >= 2 && !run_diag1 >= 1 && List.length !run_wires <= max_batch_wires
    then out := batch_of (List.rev !run) :: !out
    else List.iter (fun st -> out := st :: !out) (List.rev !run);
    run := [];
    run_len := 0;
    run_diag1 := 0;
    run_wires := []
  in
  let add_wire q = if not (List.mem q !run_wires) then run_wires := q :: !run_wires in
  List.iter
    (fun st ->
      if is_diag_step st then begin
        (match st with
        | Diag1 { q; _ } ->
            incr run_diag1;
            add_wire q
        | Cz { a; b; _ } ->
            add_wire a;
            add_wire b
        | _ -> ());
        run := st :: !run;
        incr run_len
      end
      else begin
        flush_run ();
        out := st :: !out
      end)
    steps;
  flush_run ();
  List.rev !out

let plan ~n members =
  let steps = ref [] in
  let pending : member list array = Array.make n [] in
  let flush q =
    match pending.(q) with
    | [] -> ()
    | rev_ms ->
        pending.(q) <- [];
        let ms = Array.of_list (List.rev rev_ms) in
        (* Applying g_0 then g_1 ... is the matrix product
           m_last * ... * m_0. *)
        let m = ref ms.(0).matrix in
        for i = 1 to Array.length ms - 1 do
          m := Matrix.mul ms.(i).matrix !m
        done;
        let st =
          match diag_of !m with
          | Some (d0, d1) -> Diag1 { q; d0; d1; members = ms }
          | None -> Apply1 { q; m = !m; members = ms }
        in
        steps := st :: !steps
  in
  Array.iter
    (fun mem ->
      match mem.gate with
      | Ir.Gate.One (_, q) -> pending.(q) <- mem :: pending.(q)
      | Ir.Gate.Two (kind, a, b) ->
          flush a;
          flush b;
          let ms = [| mem |] in
          let st =
            match kind with
            | Ir.Gate.Cnot -> Cnot { c = a; x = b; members = ms }
            | Ir.Gate.Cz -> Cz { a; b; members = ms }
            | Ir.Gate.Swap -> Swap { a; b; members = ms }
            | Ir.Gate.Iswap -> Iswap { a; b; members = ms }
            | Ir.Gate.Xx _ -> Two2 { m = mem.matrix; a; b; members = ms }
          in
          steps := st :: !steps
      | Ir.Gate.Measure _ | Ir.Gate.Ccx _ | Ir.Gate.Cswap _ ->
          invalid_arg "Fusion.plan: only 1Q/2Q gates")
    members;
  for q = 0 to n - 1 do
    flush q
  done;
  {
    steps = Array.of_list (batch_diagonals (List.rev !steps));
    n_members = Array.length members;
  }

(* Apply one original gate, routed to the cheapest kernel for its
   kind — the unfused fallback used when a step contains an erred
   gate. *)
let apply_member sv mem =
  match mem.gate with
  | Ir.Gate.One (_, q) -> (
      match diag_of mem.matrix with
      | Some (d0, d1) -> Statevector.apply_diag_one sv ~d0 ~d1 q
      | None -> Statevector.apply_one sv mem.matrix q)
  | Ir.Gate.Two (Ir.Gate.Cnot, a, b) -> Statevector.apply_cnot sv a b
  | Ir.Gate.Two (Ir.Gate.Cz, a, b) -> Statevector.apply_cz sv a b
  | Ir.Gate.Two (Ir.Gate.Swap, a, b) -> Statevector.apply_swap sv a b
  | Ir.Gate.Two (Ir.Gate.Iswap, a, b) -> Statevector.apply_iswap sv a b
  | Ir.Gate.Two (_, a, b) -> Statevector.apply_two sv mem.matrix a b
  | Ir.Gate.Measure _ | Ir.Gate.Ccx _ | Ir.Gate.Cswap _ -> assert false

let apply_step sv st =
  match st with
  | Apply1 { q; m; _ } -> Statevector.apply_one sv m q
  | Diag1 { q; d0; d1; _ } -> Statevector.apply_diag_one sv ~d0 ~d1 q
  | Cnot { c; x; _ } -> Statevector.apply_cnot sv c x
  | Cz { a; b; _ } -> Statevector.apply_cz sv a b
  | Swap { a; b; _ } -> Statevector.apply_swap sv a b
  | Iswap { a; b; _ } -> Statevector.apply_iswap sv a b
  | Two2 { m; a; b; _ } -> Statevector.apply_two sv m a b
  | DiagBatch { qs; fr; fi; _ } -> Statevector.apply_diag_table sv ~qs ~fr ~fi
