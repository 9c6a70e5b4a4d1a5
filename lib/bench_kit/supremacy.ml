module Rng = Mathkit.Rng
open Ir.Gate

(* The four grid CZ patterns, cycled per layer: horizontal pairs starting
   at even/odd columns, vertical pairs starting at even/odd rows. *)
let pattern ~rows ~cols step =
  let horizontal = step mod 4 < 2 in
  let lines, len = if horizontal then (rows, cols) else (cols, rows) in
  let idx line k = if horizontal then (line * cols) + k else (k * cols) + line in
  let pairs = ref [] in
  for line = 0 to lines - 1 do
    let k = ref (step mod 2) in
    while !k + 1 < len do
      pairs := (idx line !k, idx line (!k + 1)) :: !pairs;
      k := !k + 2
    done
  done;
  !pairs

let random_one_q rng =
  match Rng.int rng 3 with
  | 0 -> T
  | 1 -> Rx (Float.pi /. 2.0)
  | _ -> Ry (Float.pi /. 2.0)

let circuit ~seed ~rows ~cols ~depth =
  if rows < 2 || cols < 2 then invalid_arg "Supremacy.circuit: grid too small";
  let n = rows * cols in
  let rng = Rng.create seed in
  let gates = ref [] in
  (* Initial layer of Hadamards, as in the Cirq generator. *)
  for q = n - 1 downto 0 do
    gates := One (H, q) :: !gates
  done;
  for step = 0 to depth - 1 do
    let pairs = pattern ~rows ~cols step in
    let busy = Array.make n false in
    List.iter
      (fun (a, b) ->
        busy.(a) <- true;
        busy.(b) <- true;
        gates := Two (Cz, a, b) :: !gates)
      pairs;
    for q = 0 to n - 1 do
      if not busy.(q) then gates := One (random_one_q rng, q) :: !gates
    done
  done;
  Ir.Circuit.create n (List.rev !gates)

let two_q_count = Ir.Circuit.two_q_count
