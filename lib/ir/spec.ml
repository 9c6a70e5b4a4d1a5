type t = { measured : int list; expected : (string * float) list }

let check_bits measured bits =
  if String.length bits <> List.length measured then
    invalid_arg "Spec: bitstring length must match measured qubit count";
  String.iter
    (function '0' | '1' -> () | _ -> invalid_arg "Spec: bitstring must be 0/1")
    bits

let deterministic measured bits =
  check_bits measured bits;
  { measured; expected = [ (bits, 1.0) ] }

let distribution measured dist =
  if dist = [] then invalid_arg "Spec.distribution: empty";
  List.iter
    (fun (bits, p) ->
      check_bits measured bits;
      if p <= 0.0 then invalid_arg "Spec.distribution: non-positive probability")
    dist;
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  if total > 1.0 +. 1e-6 then invalid_arg "Spec.distribution: probabilities exceed 1";
  { measured; expected = dist }

let of_distribution measured dist =
  match List.find_opt (fun (_, p) -> p > 0.99) dist with
  | Some (bits, _) -> deterministic measured bits
  | None -> distribution measured dist

let total_shots counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

let success_rate t counts =
  let shots = total_shots counts in
  if shots = 0 then 0.0
  else begin
    (* Each expected outcome contributes its observed fraction, capped at
       its ideal probability share so the perfect device scores 1. *)
    let observed bits =
      match List.assoc_opt bits counts with
      | Some n -> float_of_int n /. float_of_int shots
      | None -> 0.0
    in
    (* Overlap of the observed distribution with the expected one, scaled
       so a perfect device scores 1. For a single deterministic answer this
       is simply the observed fraction of the correct bitstring. *)
    let overlap =
      List.fold_left
        (fun acc (bits, p) -> acc +. Float.min (observed bits) p)
        0.0 t.expected
    in
    let ideal = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 t.expected in
    overlap /. ideal
  end

let dominates t counts =
  match counts with
  | [] -> false
  | _ ->
    let mode, _ =
      List.fold_left
        (fun ((_, best_n) as best) ((_, n) as cur) ->
          if n > best_n then cur else best)
        (List.hd counts) (List.tl counts)
    in
    List.mem_assoc mode t.expected

let pp fmt t =
  Format.fprintf fmt "measure %s, expect"
    (String.concat "," (List.map string_of_int t.measured));
  List.iter (fun (bits, p) -> Format.fprintf fmt " %s:%.3f" bits p) t.expected
