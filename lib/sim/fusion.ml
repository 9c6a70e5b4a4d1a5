module Matrix = Mathkit.Matrix
module Kernel = Statevector.Kernel

(* One original gate inside a fused step, keyed back to its position in
   the prepared gate stream so error injection can address it, with the
   kernel that replays it alone. *)
type member = { idx : int; gate : Ir.Gate.t; matrix : Matrix.t; kernel : Kernel.t }

let member ~idx (gate : Ir.Gate.t) =
  let matrix =
    match gate with
    | One (kind, _) -> Ir.Matrices.one_q kind
    | Two (kind, _, _) -> Ir.Matrices.two_q kind
    | Measure _ | Ccx _ | Cswap _ -> invalid_arg "Fusion.member: only 1Q/2Q gates"
  in
  { idx; gate; matrix; kernel = Kernel.of_gate gate matrix }

type step = { kernel : Kernel.t; members : member array }

type t = { steps : step array }

let step_members st = st.members
let steps t = t.steps

(* Most diagonal gates the batcher sees come from compiled circuits'
   Rz/CZ mixtures over a handful of wires; above this many distinct
   wires the factor table stops paying for itself. *)
let max_batch_wires = 8

let is_diag_step st = match st.kernel with Diag1 _ | Cz _ -> true | _ -> false

let batch_of ~n run =
  (* Wires in first-appearance order become the table key, high bit
     first. *)
  let wires = ref [] in
  let add q = if not (List.mem q !wires) then wires := q :: !wires in
  List.iter
    (fun st ->
      match st.kernel with
      | Kernel.Diag1 { q; _ } -> add q
      | Cz { a; b } ->
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
      match st.kernel with
      | Kernel.Diag1 { q; d } ->
          let bit = bit_of q in
          for key = 0 to size - 1 do
            let cr, ci = if key land bit <> 0 then (d.(1), d.(3)) else (d.(0), d.(2)) in
            let r = fr.(key) and i = fi.(key) in
            fr.(key) <- (cr *. r) -. (ci *. i);
            fi.(key) <- (cr *. i) +. (ci *. r)
          done
      | Cz { a; b } ->
          let ba = bit_of a and bb = bit_of b in
          for key = 0 to size - 1 do
            if key land ba <> 0 && key land bb <> 0 then begin
              fr.(key) <- -.fr.(key);
              fi.(key) <- -.fi.(key)
            end
          done
      | _ -> assert false)
    run;
  let members = Array.concat (List.map step_members run) in
  { kernel = Kernel.diag_table ~n ~qs ~fr ~fi; members }

(* Merge runs of >= 2 consecutive diagonal steps (at least one of them
   a real diagonal multiply — pure-CZ runs stay on the cheaper negation
   kernel) into one table sweep. *)
let batch_diagonals ~n steps =
  let out = ref [] in
  let run = ref [] and run_len = ref 0 and run_diag1 = ref 0 and run_wires = ref [] in
  let flush_run () =
    if !run_len >= 2 && !run_diag1 >= 1 && List.length !run_wires <= max_batch_wires
    then out := batch_of ~n (List.rev !run) :: !out
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
        (match st.kernel with
        | Kernel.Diag1 { q; _ } ->
            incr run_diag1;
            add_wire q
        | Cz { a; b } ->
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
        steps := { kernel = Kernel.one_q !m q; members = ms } :: !steps
  in
  Array.iter
    (fun mem ->
      match mem.gate with
      | Ir.Gate.One (_, q) -> pending.(q) <- mem :: pending.(q)
      | Ir.Gate.Two (_, a, b) ->
          flush a;
          flush b;
          steps := { kernel = mem.kernel; members = [| mem |] } :: !steps
      | Ir.Gate.Measure _ | Ir.Gate.Ccx _ | Ir.Gate.Cswap _ ->
          invalid_arg "Fusion.plan: only 1Q/2Q gates")
    members;
  for q = 0 to n - 1 do
    flush q
  done;
  { steps = Array.of_list (batch_diagonals ~n (List.rev !steps)) }

let apply_member sv (mem : member) = Statevector.apply sv mem.kernel
let apply_step sv (st : step) = Statevector.apply sv st.kernel
