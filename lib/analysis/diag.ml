(* The diagnostic type is defined in Ir.Diag so that the frontends, which
   this library depends on, can raise it too; Analysis.Diag is its name
   everywhere else. *)
include Ir.Diag
