module Compiled = Triq.Compiled

type outcome = {
  distribution : (string * float) list;
  success_rate : float;
  purity : float;
}

let run ?(explicit_t1 = false) (compiled : Compiled.t) spec =
  Obs.Span.with_span
    ~attrs:[ ("machine", Obs.Span.Str compiled.Compiled.machine.Device.Machine.name) ]
    "sim.density"
  @@ fun () ->
  let b = Binding.make compiled ~measured:spec.Ir.Spec.measured in
  let k = b.Binding.k in
  if k = 0 then invalid_arg "Density_runner.run: empty circuit";
  if k > 8 then invalid_arg "Density_runner.run: too many qubits for exact simulation";
  let noise = Noise.of_day compiled.Compiled.machine ~day:compiled.Compiled.day in
  let rho = Density.init k in
  Array.iter2
    (fun g (cg : Ir.Gate.t) ->
      let p = Noise.error_prob noise ~explicit_t1 g in
      let gamma = if explicit_t1 then Noise.relaxation_gamma noise g else 0.0 in
      match cg with
      | One (kind, cq) ->
        Density.apply_one rho (Ir.Matrices.one_q kind) cq;
        if p > 0.0 then Density.depolarize_one rho p cq;
        if gamma > 0.0 then Density.amplitude_damp rho gamma cq
      | Two (kind, ca, cb) ->
        Density.apply_two rho (Ir.Matrices.two_q kind) ca cb;
        if p > 0.0 then Density.depolarize_two rho p ca cb;
        if gamma > 0.0 then begin
          Density.amplitude_damp rho gamma ca;
          Density.amplitude_damp rho gamma cb
        end
      | Measure _ | Ccx _ | Cswap _ -> invalid_arg "Density_runner.run: not hardware-level")
    b.Binding.gates b.Binding.compact;
  let distribution = Binding.readout b (Density.populations rho) (Binding.flips b noise) in
  (* Exact probabilities: score the spec against a high-resolution count
     rendering so Spec's histogram API applies unchanged. *)
  let counts = Dist.to_counts distribution 10_000_000 in
  {
    distribution;
    success_rate = Ir.Spec.success_rate spec counts;
    purity = Density.purity rho;
  }
