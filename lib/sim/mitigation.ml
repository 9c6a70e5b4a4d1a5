let correct ~flip dist =
  let m = Array.length flip in
  Array.iter
    (fun f ->
      if f < 0.0 || f >= 0.5 then
        invalid_arg "Mitigation.correct: flip probability must be in [0, 0.5)")
    flip;
  List.iter
    (fun (bits, _) ->
      if String.length bits <> m then
        invalid_arg "Mitigation.correct: bitstring length mismatch")
    dist;
  (* Dense vector over 2^m outcomes. *)
  let dim = 1 lsl m in
  let v = Array.make dim 0.0 in
  List.iter
    (fun (bits, p) ->
      let idx =
        String.fold_left (fun acc c -> (acc lsl 1) lor (if c = '1' then 1 else 0)) 0 bits
      in
      v.(idx) <- v.(idx) +. p)
    dist;
  (* Apply the inverse 2x2 confusion matrix bit by bit:
     A = [[1-f, f]; [f, 1-f]], A^-1 = 1/(1-2f) [[1-f, -f]; [-f, 1-f]]. *)
  for i = 0 to m - 1 do
    let f = flip.(i) in
    let scale = 1.0 /. (1.0 -. (2.0 *. f)) in
    let stride = 1 lsl (m - 1 - i) in
    let idx = ref 0 in
    while !idx < dim do
      let block_end = !idx + stride in
      while !idx < block_end do
        let x0 = v.(!idx) and x1 = v.(!idx + stride) in
        v.(!idx) <- scale *. (((1.0 -. f) *. x0) -. (f *. x1));
        v.(!idx + stride) <- scale *. (((1.0 -. f) *. x1) -. (f *. x0));
        incr idx
      done;
      idx := !idx + stride
    done
  done;
  (* Clip quasi-probabilities and renormalize. *)
  let total = ref 0.0 in
  Array.iteri
    (fun i x ->
      let x = Float.max 0.0 x in
      v.(i) <- x;
      total := !total +. x)
    v;
  if !total > 0.0 then Array.iteri (fun i x -> v.(i) <- x /. !total) v;
  Dist.to_strings v

let mitigated_success ?seed ?trials ?trajectories (compiled : Triq.Compiled.t) spec =
  let outcome =
    Runner.simulate
      ~config:(Runner.Config.make ?seed ?trials ?trajectories ())
      compiled spec
  in
  let noise = Noise.of_day compiled.Triq.Compiled.machine ~day:compiled.Triq.Compiled.day in
  let flip = Binding.flips (Binding.make compiled ~measured:spec.Ir.Spec.measured) noise in
  let mitigated = correct ~flip outcome.Runner.distribution in
  let counts = Dist.to_counts mitigated outcome.Runner.trials in
  (outcome.Runner.success_rate, Ir.Spec.success_rate spec counts)
