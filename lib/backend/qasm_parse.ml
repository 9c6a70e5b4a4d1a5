(* OpenQASM is read by one parser, [Qasm.Frontend]. This alias keeps the
   old module name for perfbench/main.ml only; delete it once perfbench
   names [Qasm.Frontend] directly. *)
include Qasm.Frontend
