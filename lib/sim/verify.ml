module Compiled = Triq.Compiled

type result = {
  equivalent : bool;
  total_variation : float;
  program_distribution : (string * float) list;
  compiled_distribution : (string * float) list;
}

let check ~program ~measured (compiled : Compiled.t) =
  let program_distribution =
    Runner.ideal_distribution (Ir.Circuit.body program) ~measured
  in
  let b = Binding.make compiled ~measured in
  let hw = Ir.Circuit.create (max 1 b.Binding.k) (Array.to_list b.Binding.compact) in
  let compiled_distribution = Runner.ideal_distribution hw ~measured:b.Binding.positions in
  let total_variation = Dist.total_variation program_distribution compiled_distribution in
  {
    equivalent = total_variation < 1e-6;
    total_variation;
    program_distribution;
    compiled_distribution;
  }
