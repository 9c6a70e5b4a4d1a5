exception Error of string * int

type program = {
  circuit : Ir.Circuit.t;
  measured : int list;
  qubit_names : (string * int) list;
}

type event =
  | Reg_decl of { name : string; base : int; size : int; line : int }
  | Gate_use of { qubit : int; line : int }
  | Measure_use of { qubit : int; line : int }

type traced = {
  result : (program, string * int) result;
  events : event list;
}

(* Global lowering state (gates, readout, qubit allocator) plus a
   per-call lexical context: registers in scope and loop variables. *)
type state = {
  modules : (string * Ast.module_def) list;
  mutable next_qubit : int;
  mutable gates : Ir.Gate.t list;  (** reversed *)
  mutable measured : int list;  (** reversed *)
  mutable qubit_names : (string * int) list;  (** reversed *)
  mutable events : event list;  (** reversed; the linter's trace *)
  mutable expanded : int;  (** gates, calls and loop iterations so far *)
}

type context = {
  registers : (string * (int * int)) list;  (** name -> (base, size) *)
  loop_vars : (string * int) list;
  depth : int;
  scope : string;  (** for error messages and qubit naming *)
}

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error (msg, line))) fmt

let rec eval_int ctx line (e : Ast.int_expr) =
  match e with
  | Int_lit n -> n
  | Var name -> (
    match List.assoc_opt name ctx.loop_vars with
    | Some v -> v
    | None -> fail line "unknown variable %S (only loop variables are in scope)" name)
  | Binop (op, a, b) ->
    let x = eval_int ctx line a and y = eval_int ctx line b in
    (match op with
    | Add -> x + y
    | Sub -> x - y
    | Mul -> x * y
    | Div -> if y = 0 then fail line "division by zero" else x / y
    | Mod -> if y = 0 then fail line "modulo by zero" else x mod y)

let rec eval_float ctx line (e : Ast.float_expr) =
  match e with
  | Float_lit f -> f
  | Pi -> Float.pi
  | Of_int ie -> float_of_int (eval_int ctx line ie)
  | Fneg f -> -.eval_float ctx line f
  | Fbinop (op, a, b) ->
    let x = eval_float ctx line a and y = eval_float ctx line b in
    (match op with
    | Fadd -> x +. y
    | Fsub -> x -. y
    | Fmul -> x *. y
    | Fdiv ->
      if Float.abs y < 1e-300 then fail line "division by zero in angle" else x /. y)

let resolve_qubit ctx line (r : Ast.qubit_ref) =
  match List.assoc_opt r.register ctx.registers with
  | None -> fail line "unknown register %S" r.register
  | Some (base, size) -> (
    match r.index with
    | None ->
      if size <> 1 then
        fail line "register %S has %d qubits; an index is required" r.register size;
      base
    | Some ie ->
      let i = eval_int ctx line ie in
      if i < 0 || i >= size then
        fail line "index %d out of bounds for register %S[%d]" i r.register size;
      base + i)

let emit st g = st.gates <- g :: st.gates

(* One expansion step, bounded by Ir.Circuit.max_gates. *)
let tick st line =
  st.expanded <- st.expanded + 1;
  Ir.Circuit.check_gates ~layer:"scaffold" ~line st.expanded

let record st e = st.events <- e :: st.events

let apply_primitive st ctx line name angles qubits =
  let a = Array.of_list angles in
  let q = Array.of_list qubits in
  ignore ctx;
  tick st line;
  let need_angles n =
    if Array.length a <> n then
      fail line "gate %s expects %d angle argument(s), got %d" name n (Array.length a)
  in
  let need_qubits n =
    if Array.length q <> n then
      fail line "gate %s expects %d qubit argument(s), got %d" name n (Array.length q)
  in
  let one k =
    need_angles 0;
    need_qubits 1;
    emit st (Ir.Gate.One (k, q.(0)))
  in
  let one_a1 mk =
    need_angles 1;
    need_qubits 1;
    emit st (Ir.Gate.One (mk a.(0), q.(0)))
  in
  let two k =
    need_angles 0;
    need_qubits 2;
    emit st (Ir.Gate.Two (k, q.(0), q.(1)))
  in
  match name with
  | "X" | "NOT" -> one Ir.Gate.X
  | "Y" -> one Ir.Gate.Y
  | "Z" -> one Ir.Gate.Z
  | "H" -> one Ir.Gate.H
  | "S" -> one Ir.Gate.S
  | "Sdag" | "Sdg" -> one Ir.Gate.Sdg
  | "T" -> one Ir.Gate.T
  | "Tdag" | "Tdg" -> one Ir.Gate.Tdg
  | "Rx" -> one_a1 (fun t -> Ir.Gate.Rx t)
  | "Ry" -> one_a1 (fun t -> Ir.Gate.Ry t)
  | "Rz" -> one_a1 (fun t -> Ir.Gate.Rz t)
  | "U1" -> one_a1 (fun t -> Ir.Gate.U1 t)
  | "Rxy" ->
    need_angles 2;
    need_qubits 1;
    emit st (Ir.Gate.One (Ir.Gate.Rxy (a.(0), a.(1)), q.(0)))
  | "U2" ->
    need_angles 2;
    need_qubits 1;
    emit st (Ir.Gate.One (Ir.Gate.U2 (a.(0), a.(1)), q.(0)))
  | "U3" ->
    need_angles 3;
    need_qubits 1;
    emit st (Ir.Gate.One (Ir.Gate.U3 (a.(0), a.(1), a.(2)), q.(0)))
  | "CNOT" | "CX" -> two Ir.Gate.Cnot
  | "CZ" -> two Ir.Gate.Cz
  | "SWAP" -> two Ir.Gate.Swap
  | "ISWAP" | "iSWAP" -> two Ir.Gate.Iswap
  | "XX" ->
    need_angles 1;
    need_qubits 2;
    emit st (Ir.Gate.Two (Ir.Gate.Xx a.(0), q.(0), q.(1)))
  | "Toffoli" | "CCNOT" | "CCX" ->
    need_angles 0;
    need_qubits 3;
    emit st (Ir.Gate.Ccx (q.(0), q.(1), q.(2)))
  | "Fredkin" | "CSWAP" ->
    need_angles 0;
    need_qubits 3;
    emit st (Ir.Gate.Cswap (q.(0), q.(1), q.(2)))
  | other -> fail line "unknown gate or module %S" other

let max_call_depth = 64

let rec exec_stmt st ctx (s : Ast.stmt) =
  match s with
  | Decl { name; size; line } ->
    if List.mem_assoc name ctx.registers then
      fail line "register %S already declared in this scope" name;
    if size <= 0 then fail line "register %S must have positive size" name;
    Ir.Circuit.check_register ~layer:"scaffold" ~line ~used:st.next_qubit name size;
    let base = st.next_qubit in
    st.next_qubit <- st.next_qubit + size;
    for i = 0 to size - 1 do
      st.qubit_names <-
        (Printf.sprintf "%s%s[%d]" ctx.scope name i, base + i) :: st.qubit_names
    done;
    record st (Reg_decl { name = ctx.scope ^ name; base; size; line });
    { ctx with registers = (name, (base, size)) :: ctx.registers }
  | Gate { name; angles; qubits; line } -> (
    match List.assoc_opt name st.modules with
    | Some callee ->
      if angles <> [] then fail line "module %S takes no angle arguments" name;
      call_module st ctx line callee qubits;
      ctx
    | None ->
      let angle_values = List.map (eval_float ctx line) angles in
      let qubit_values = List.map (resolve_qubit ctx line) qubits in
      let distinct = List.sort_uniq compare qubit_values in
      if List.length distinct <> List.length qubit_values then
        fail line "gate %s applied with repeated qubit operands" name;
      List.iter (fun q -> record st (Gate_use { qubit = q; line })) qubit_values;
      apply_primitive st ctx line name angle_values qubit_values;
      ctx)
  | For { var; from_; to_; body; line } ->
    if List.mem_assoc var ctx.loop_vars then
      fail line "loop variable %S shadows an enclosing loop" var;
    let lo = eval_int ctx line from_ and hi = eval_int ctx line to_ in
    if hi - lo > 100_000 then fail line "loop too large to unroll";
    for i = lo to hi - 1 do
      tick st line;
      let loop_ctx = { ctx with loop_vars = (var, i) :: ctx.loop_vars } in
      ignore (exec_block st loop_ctx body)
    done;
    ctx
  | Measure_stmt { target; line } ->
    let q = resolve_qubit ctx line target in
    if List.mem q st.measured then fail line "qubit measured twice";
    st.measured <- q :: st.measured;
    record st (Measure_use { qubit = q; line });
    tick st line;
    emit st (Ir.Gate.Measure q);
    ctx
  | Measure_all { register; line } -> (
    match List.assoc_opt register ctx.registers with
    | None -> fail line "unknown register %S" register
    | Some (base, size) ->
      for i = 0 to size - 1 do
        let q = base + i in
        if List.mem q st.measured then fail line "qubit measured twice";
        st.measured <- q :: st.measured;
        record st (Measure_use { qubit = q; line });
        tick st line;
        emit st (Ir.Gate.Measure q)
      done;
      ctx)

and exec_block st ctx body = List.fold_left (exec_stmt st) ctx body

and call_module st ctx line (callee : Ast.module_def) args =
  if ctx.depth >= max_call_depth then
    fail line "module call depth exceeds %d (recursive modules?)" max_call_depth;
  tick st line;
  if List.length args <> List.length callee.Ast.params then
    fail line "module %S expects %d qubit argument(s), got %d" callee.Ast.name
      (List.length callee.Ast.params)
      (List.length args);
  let arg_qubits = List.map (resolve_qubit ctx line) args in
  let distinct = List.sort_uniq compare arg_qubits in
  if List.length distinct <> List.length arg_qubits then
    fail line "module %S called with repeated qubit arguments" callee.Ast.name;
  let callee_ctx =
    {
      registers = List.map2 (fun p q -> (p, (q, 1))) callee.Ast.params arg_qubits;
      loop_vars = [];
      depth = ctx.depth + 1;
      scope = ctx.scope ^ callee.Ast.name ^ ".";
    }
  in
  ignore (exec_block st callee_ctx callee.Ast.body)

let lower_traced (ast : Ast.t) =
  let modules = List.map (fun (m : Ast.module_def) -> (m.Ast.name, m)) ast.Ast.modules in
  let st =
    {
      modules;
      next_qubit = 0;
      gates = [];
      measured = [];
      qubit_names = [];
      events = [];
      expanded = 0;
    }
  in
  let result =
    try
      let main =
        match List.assoc_opt "main" modules with
        | Some m -> m
        | None -> raise (Error ("program has no module \"main\"", 1))
      in
      if main.Ast.params <> [] then
        raise (Error ("module \"main\" must take no parameters", main.Ast.line));
      ignore
        (exec_block st
           { registers = []; loop_vars = []; depth = 0; scope = "" }
           main.Ast.body);
      if st.next_qubit = 0 then raise (Error ("program declares no qubits", 1));
      Ok
        {
          circuit = Ir.Circuit.create st.next_qubit (List.rev st.gates);
          measured = List.rev st.measured;
          qubit_names = List.rev st.qubit_names;
        }
    with Error (msg, line) -> (Error (msg, line) : (program, string * int) result)
  in
  { result; events = List.rev st.events }

let lower (ast : Ast.t) =
  match (lower_traced ast).result with
  | Ok p -> p
  | Error (msg, line) -> raise (Error (msg, line))

let compile_string source = lower (Parser.parse source)

let compile_file path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  compile_string source
