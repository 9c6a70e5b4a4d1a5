let project probs k positions =
  let m = List.length positions in
  let out = Array.make (1 lsl m) 0.0 in
  let positions = Array.of_list positions in
  Array.iteri
    (fun s p ->
      if p > 0.0 then begin
        let y = ref 0 in
        Array.iter
          (fun c -> y := (!y lsl 1) lor ((s lsr (k - 1 - c)) land 1))
          positions;
        out.(!y) <- out.(!y) +. p
      end)
    probs;
  out

(* Outcome [y0] moves [p0 * f_0 * ... * f_(m-1)] to [y], left to right,
   where [f_i] is [1 - flip.(i)] when bit [i] (MSB first) of [y] equals
   [y0]'s and [flip.(i)] otherwise. The products are built a bit at a
   time: after step [i], [w.(j)] is [p0] times the first [i + 1]
   factors of every [y] whose top bits are [j], each product formed
   once and shared by all the [y] below it. That is the same chain of
   roundings as a per-[y] product, in 2^(m+1) multiplies per [y0]
   instead of m * 2^m, and [out] still adds the [y0] terms in order. *)
let corrupt_readout q flip =
  let m = Array.length flip in
  let n = Array.length q in
  let mask = (1 lsl m) - 1 in
  let keep = Array.map (fun f -> 1.0 -. f) flip in
  let out = Array.make n 0.0 in
  let w = Array.make (1 lsl m) 0.0 in
  for y0 = 0 to n - 1 do
    let p0 = q.(y0) in
    if p0 > 0.0 then begin
      w.(0) <- p0;
      for i = 0 to m - 1 do
        let same = (y0 lsr (m - 1 - i)) land 1 = 0 in
        let f0 = if same then keep.(i) else flip.(i) in
        let f1 = if same then flip.(i) else keep.(i) in
        for j = (1 lsl i) - 1 downto 0 do
          let x = w.(j) in
          w.((2 * j) + 1) <- x *. f1;
          w.(2 * j) <- x *. f0
        done
      done;
      for y = 0 to n - 1 do
        out.(y) <- out.(y) +. w.(y land mask)
      done
    end
  done;
  out

let bits_to_string m y =
  String.init m (fun i -> if (y lsr (m - 1 - i)) land 1 = 1 then '1' else '0')

let to_strings dist =
  let m =
    (* dist has length 2^m *)
    let rec log2 x acc = if x <= 1 then acc else log2 (x lsr 1) (acc + 1) in
    log2 (Array.length dist) 0
  in
  Array.to_list (Array.mapi (fun y p -> (bits_to_string m y, p)) dist)
  |> List.filter (fun (_, p) -> p > 1e-6)
  |> List.sort (fun (_, p1) (_, p2) -> Float.compare p2 p1)

let to_counts dist trials =
  let raw = List.map (fun (s, p) -> (s, p *. float_of_int trials)) dist in
  let floored = List.map (fun (s, x) -> (s, int_of_float (Float.floor x), x)) raw in
  let assigned = List.fold_left (fun acc (_, n, _) -> acc + n) 0 floored in
  let remainder_order =
    List.sort
      (fun (_, n1, x1) (_, n2, x2) ->
        compare (x2 -. float_of_int n2) (x1 -. float_of_int n1))
      floored
  in
  let missing = trials - assigned in
  let bumped =
    List.mapi (fun i (s, n, _) -> (s, if i < missing then n + 1 else n)) remainder_order
  in
  List.filter (fun (_, n) -> n > 0) bumped

let outcomes a b =
  List.sort_uniq compare (List.map fst a @ List.map fst b)

let prob dist key = Option.value ~default:0.0 (List.assoc_opt key dist)

let total_variation a b =
  0.5
  *. List.fold_left
       (fun acc key -> acc +. Float.abs (prob a key -. prob b key))
       0.0 (outcomes a b)

let parity_expectation dist positions =
  List.fold_left
    (fun acc (bits, p) ->
      let ones =
        List.fold_left
          (fun n i ->
            if i < 0 || i >= String.length bits then
              invalid_arg "Dist.parity_expectation: position out of range"
            else if bits.[i] = '1' then n + 1
            else n)
          0 positions
      in
      acc +. (p *. if ones mod 2 = 0 then 1.0 else -1.0))
    0.0 dist
