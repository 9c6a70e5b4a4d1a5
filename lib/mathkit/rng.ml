(* The SplitMix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: reading and writing it through the bytes primitives
   keeps the arithmetic unboxed, so a draw allocates nothing once
   [next] is inlined into the sampler. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let int64 t = next t

let split t = of_state (next t)

let[@inline] float t =
  (* 53 high-quality bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let f = float t in
  let i = int_of_float (f *. Float.of_int bound) in
  if i >= bound then bound - 1 else i

let bool t p = float t < p

let gaussian t =
  let rec nonzero () =
    let u = float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t l =
  match l with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth l (int t (List.length l))

(* [float t < p] compares [bits * 2^-53] with [p], where [bits < 2^53]
   is an integer and both scalings by a power of two are exact, so it
   holds exactly when [bits < p * 2^53], that is when
   [bits < ceil (p * 2^53)]. A threshold of 0 stands for [p <= 0] or
   NaN: no draw. *)
let threshold p =
  if p > 0.0 then
    if p >= 1.0 then 1 lsl 53 else int_of_float (Float.ceil (p *. 9007199254740992.0))
  else 0

(* One draw per entry of [ids], in order. Over the gates whose
   threshold is positive, listed ascending, that is the stream of
   [p > 0.0 && bool t p] over every gate, draw for draw: a gate with
   threshold 0 draws nothing in either form. The state stays in a local
   [int64] across the loop, which ocamlopt keeps unboxed, and is
   written back once. *)
let bernoulli_hits t ids thresholds hits =
  let n = Array.length ids in
  if Array.length thresholds <> n || Array.length hits < n then
    invalid_arg "Rng.bernoulli_hits: length mismatch";
  let s = ref (Bytes.get_int64_ne t 0) in
  let count = ref 0 in
  for j = 0 to n - 1 do
    s := Int64.add !s golden_gamma;
    if Int64.to_int (Int64.shift_right_logical (mix !s) 11) < thresholds.(j) then begin
      hits.(!count) <- ids.(j);
      incr count
    end
  done;
  Bytes.set_int64_ne t 0 !s;
  !count
