exception Error of string * int

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error (msg, line))) fmt

(* ---------- Lexer ---------- *)

type token =
  | Ident of string
  | Real of float
  | Nat of int
  | Str of string
  | Sym of char  (** ; , ( ) { } [ ] + - * / ^ *)
  | Arrow
  | Eof

type ltoken = { tok : token; line : int }

let tokenize src =
  let pos = ref 0 and line = ref 1 in
  let n = String.length src in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () =
    (if !pos < n && src.[!pos] = '\n' then incr line);
    incr pos
  in
  let out = ref [] in
  let emit tok = out := { tok; line = !line } :: !out in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_ident c = is_ident_start c || is_digit c in
  let rec go () =
    match peek () with
    | None -> emit Eof
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance ();
      go ()
    | Some '/' when !pos + 1 < n && src.[!pos + 1] = '/' ->
      while peek () <> None && peek () <> Some '\n' do
        advance ()
      done;
      go ()
    | Some '"' ->
      advance ();
      let start = !pos in
      while peek () <> None && peek () <> Some '"' do
        advance ()
      done;
      if peek () = None then fail !line "unterminated string";
      emit (Str (String.sub src start (!pos - start)));
      advance ();
      go ()
    | Some '-' when !pos + 1 < n && src.[!pos + 1] = '>' ->
      advance ();
      advance ();
      emit Arrow;
      go ()
    | Some c when is_digit c || (c = '.' && !pos + 1 < n && is_digit src.[!pos + 1]) ->
      let start = !pos in
      let is_real = ref false in
      while
        match peek () with
        | Some c when is_digit c -> true
        | Some ('.' | 'e' | 'E') ->
          is_real := true;
          true
        | Some ('+' | '-')
          when !pos > start && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E') ->
          true
        | _ -> false
      do
        advance ()
      done;
      let text = String.sub src start (!pos - start) in
      (if !is_real then
         match float_of_string_opt text with
         | Some f -> emit (Real f)
         | None -> fail !line "bad real literal %S" text
       else
         match int_of_string_opt text with
         | Some i -> emit (Nat i)
         | None -> fail !line "bad integer literal %S" text);
      go ()
    | Some c when is_ident_start c ->
      let start = !pos in
      while (match peek () with Some c -> is_ident c | None -> false) do
        advance ()
      done;
      emit (Ident (String.sub src start (!pos - start)));
      go ()
    | Some (( ';' | ',' | '(' | ')' | '{' | '}' | '[' | ']' | '+' | '-' | '*' | '/'
            | '^' | '=' | '!' | '<' | '>' ) as c) ->
      advance ();
      emit (Sym c);
      go ()
    | Some c -> fail !line "unexpected character %C" c
  in
  go ();
  List.rev !out

(* ---------- Parser state ---------- *)

type state = { mutable tokens : ltoken list }

let current st = match st.tokens with t :: _ -> t | [] -> assert false

let advance st =
  match st.tokens with _ :: ((_ :: _) as rest) -> st.tokens <- rest | _ -> ()

let cur_line st = (current st).line

let expect_sym st c =
  match (current st).tok with
  | Sym x when x = c -> advance st
  | _ -> fail (cur_line st) "expected %C" c

let expect_ident st =
  match (current st).tok with
  | Ident name ->
    advance st;
    name
  | _ -> fail (cur_line st) "expected an identifier"

let expect_nat st =
  match (current st).tok with
  | Nat v ->
    advance st;
    v
  | _ -> fail (cur_line st) "expected an integer"

(* ---------- Parameter expressions ---------- *)

type expr =
  | Num of float
  | Pi
  | Param of string
  | Neg of expr
  | Bin of char * expr * expr

let rec parse_expr st = parse_add st

and parse_add st =
  let lhs = parse_mul st in
  match (current st).tok with
  | Sym ('+' as op) | Sym ('-' as op) ->
    advance st;
    let rhs = parse_add_chain st (Bin (op, lhs, parse_mul st)) in
    rhs
  | _ -> lhs

and parse_add_chain st lhs =
  match (current st).tok with
  | Sym ('+' as op) | Sym ('-' as op) ->
    advance st;
    parse_add_chain st (Bin (op, lhs, parse_mul st))
  | _ -> lhs

and parse_mul st =
  let lhs = parse_pow st in
  parse_mul_chain st lhs

and parse_mul_chain st lhs =
  match (current st).tok with
  | Sym ('*' as op) | Sym ('/' as op) ->
    advance st;
    parse_mul_chain st (Bin (op, lhs, parse_pow st))
  | _ -> lhs

and parse_pow st =
  let lhs = parse_atom st in
  match (current st).tok with
  | Sym '^' ->
    advance st;
    Bin ('^', lhs, parse_pow st)
  | _ -> lhs

and parse_atom st =
  match (current st).tok with
  | Real f ->
    advance st;
    Num f
  | Nat v ->
    advance st;
    Num (float_of_int v)
  | Ident "pi" ->
    advance st;
    Pi
  | Ident name ->
    advance st;
    Param name
  | Sym '-' ->
    advance st;
    (* Unary minus binds looser than ^: -pi^2 = -(pi^2). *)
    Neg (parse_pow st)
  | Sym '(' ->
    advance st;
    let e = parse_expr st in
    expect_sym st ')';
    e
  | _ -> fail (cur_line st) "expected a parameter expression"

let rec eval_expr line env = function
  | Num f -> f
  | Pi -> Float.pi
  | Param name -> (
    match List.assoc_opt name env with
    | Some v -> v
    | None -> fail line "unknown parameter %S" name)
  | Neg e -> -.eval_expr line env e
  | Bin (op, a, b) -> (
    let x = eval_expr line env a and y = eval_expr line env b in
    match op with
    | '+' -> x +. y
    | '-' -> x -. y
    | '*' -> x *. y
    | '/' ->
      if Float.abs y < 1e-300 then fail line "division by zero" else x /. y
    | '^' -> Float.pow x y
    | _ -> assert false)

(* A gate parameter: the expression's value, which must be a finite angle. *)
let eval_param line env e =
  let v = eval_expr line env e in
  Ir.Circuit.check_angle ~layer:"qasm" ~line v;
  v

(* ---------- Arguments and gate bodies ---------- *)

type arg = Whole of string | Indexed of string * int

type gate_op = {
  op_name : string;
  op_params : expr list;
  op_args : arg list;
  op_line : int;
}

type gate_def = { g_params : string list; g_qubits : string list; g_body : gate_op list }

let parse_arg st =
  let name = expect_ident st in
  match (current st).tok with
  | Sym '[' ->
    advance st;
    let i = expect_nat st in
    expect_sym st ']';
    Indexed (name, i)
  | _ -> Whole name

let parse_params_opt st =
  match (current st).tok with
  | Sym '(' ->
    advance st;
    if (current st).tok = Sym ')' then begin
      advance st;
      []
    end
    else begin
      let rec collect acc =
        let e = parse_expr st in
        match (current st).tok with
        | Sym ',' ->
          advance st;
          collect (e :: acc)
        | _ ->
          expect_sym st ')';
          List.rev (e :: acc)
      in
      collect []
    end
  | _ -> []

let parse_args st =
  let rec collect acc =
    let a = parse_arg st in
    match (current st).tok with
    | Sym ',' ->
      advance st;
      collect (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  collect []

let parse_gate_op st =
  let op_line = cur_line st in
  let op_name = expect_ident st in
  let op_params = parse_params_opt st in
  let op_args = parse_args st in
  expect_sym st ';';
  { op_name; op_params; op_args; op_line }

(* ---------- Elaboration ---------- *)

type program = {
  circuit : Ir.Circuit.t;
  measured : int list;
  qubit_names : (string * int) list;
}

type env = {
  mutable qregs : (string * (int * int)) list;
  mutable cregs : (string * (int * int)) list;
  mutable next_qubit : int;
  mutable next_cbit : int;
  mutable defs : (string * gate_def) list;
  mutable gates : Ir.Gate.t list;  (** reversed *)
  mutable readout : (int * int) list;  (** cbit -> qubit *)
  mutable expanded : int;  (** gates and calls so far *)
}

let one k q = Ir.Gate.One (k, q)

(* qelib1 built-ins expressed over the IR. Returns None for unknown names
   (then looked up among user definitions). *)
let builtin line name params (qs : int array) =
  let p i = List.nth params i in
  let need np nq =
    if List.length params <> np then
      fail line "gate %s expects %d parameter(s), got %d" name np (List.length params);
    if Array.length qs <> nq then
      fail line "gate %s expects %d qubit(s), got %d" name nq (Array.length qs)
  in
  match name with
  | "U" | "u3" | "u" ->
    need 3 1;
    Some [ one (Ir.Gate.U3 (p 0, p 1, p 2)) qs.(0) ]
  | "u2" ->
    need 2 1;
    Some [ one (Ir.Gate.U2 (p 0, p 1)) qs.(0) ]
  | "u1" | "p" ->
    need 1 1;
    Some [ one (Ir.Gate.U1 (p 0)) qs.(0) ]
  | "CX" | "cx" ->
    need 0 2;
    Some [ Ir.Gate.Two (Ir.Gate.Cnot, qs.(0), qs.(1)) ]
  | "id" ->
    need 0 1;
    Some []
  | "h" ->
    need 0 1;
    Some [ one Ir.Gate.H qs.(0) ]
  | "x" ->
    need 0 1;
    Some [ one Ir.Gate.X qs.(0) ]
  | "y" ->
    need 0 1;
    Some [ one Ir.Gate.Y qs.(0) ]
  | "z" ->
    need 0 1;
    Some [ one Ir.Gate.Z qs.(0) ]
  | "s" ->
    need 0 1;
    Some [ one Ir.Gate.S qs.(0) ]
  | "sdg" ->
    need 0 1;
    Some [ one Ir.Gate.Sdg qs.(0) ]
  | "t" ->
    need 0 1;
    Some [ one Ir.Gate.T qs.(0) ]
  | "tdg" ->
    need 0 1;
    Some [ one Ir.Gate.Tdg qs.(0) ]
  | "rx" ->
    need 1 1;
    Some [ one (Ir.Gate.Rx (p 0)) qs.(0) ]
  | "ry" ->
    need 1 1;
    Some [ one (Ir.Gate.Ry (p 0)) qs.(0) ]
  | "rz" ->
    need 1 1;
    Some [ one (Ir.Gate.Rz (p 0)) qs.(0) ]
  | "cz" ->
    need 0 2;
    Some [ Ir.Gate.Two (Ir.Gate.Cz, qs.(0), qs.(1)) ]
  | "swap" ->
    need 0 2;
    Some [ Ir.Gate.Two (Ir.Gate.Swap, qs.(0), qs.(1)) ]
  | "iswap" ->
    need 0 2;
    Some [ Ir.Gate.Two (Ir.Gate.Iswap, qs.(0), qs.(1)) ]
  | "ccx" ->
    need 0 3;
    Some [ Ir.Gate.Ccx (qs.(0), qs.(1), qs.(2)) ]
  | "cswap" ->
    need 0 3;
    Some [ Ir.Gate.Cswap (qs.(0), qs.(1), qs.(2)) ]
  | "cu1" | "cp" ->
    need 1 2;
    Some (Ir.Decompose.cu1 (p 0) qs.(0) qs.(1))
  | "crz" ->
    need 1 2;
    Some (Ir.Decompose.crz (p 0) qs.(0) qs.(1))
  | "crx" ->
    need 1 2;
    Some (Ir.Decompose.crx (p 0) qs.(0) qs.(1))
  | "cry" ->
    need 1 2;
    Some (Ir.Decompose.cry (p 0) qs.(0) qs.(1))
  | "ch" ->
    need 0 2;
    Some (Ir.Decompose.ch qs.(0) qs.(1))
  | "cy" ->
    need 0 2;
    Some (Ir.Decompose.cy qs.(0) qs.(1))
  | "cu3" ->
    need 3 2;
    Some (Ir.Decompose.cu3 (p 0) (p 1) (p 2) qs.(0) qs.(1))
  | _ -> None

let max_expansion_depth = 64

(* [n] expansion steps, bounded by Ir.Circuit.max_gates. *)
let tick env line n =
  env.expanded <- env.expanded + n;
  Ir.Circuit.check_gates ~layer:"qasm" ~line env.expanded

let rec apply_gate env depth line name param_values (qs : int array) =
  if depth > max_expansion_depth then
    fail line "gate expansion too deep (recursive definition of %s?)" name;
  let distinct =
    let l = Array.to_list qs in
    List.length (List.sort_uniq compare l) = Array.length qs
  in
  if not distinct then fail line "gate %s applied with repeated qubits" name;
  match builtin line name param_values qs with
  | Some gates ->
    tick env line (max 1 (List.length gates));
    List.iter (fun g -> env.gates <- g :: env.gates) gates
  | None -> (
    match
      List.find_map (fun (n, d) -> if String.equal n name then Some d else None) env.defs
    with
    | None -> fail line "unknown gate %S" name
    | Some def ->
      tick env line 1;
      if List.length def.g_params <> List.length param_values then
        fail line "gate %s expects %d parameter(s)" name (List.length def.g_params);
      if List.length def.g_qubits <> Array.length qs then
        fail line "gate %s expects %d qubit(s)" name (List.length def.g_qubits);
      let param_env = List.combine def.g_params param_values in
      let qubit_env = List.combine def.g_qubits (Array.to_list qs) in
      List.iter
        (fun op ->
          let values = List.map (eval_param op.op_line param_env) op.op_params in
          let operands =
            Array.of_list
              (List.map
                 (function
                   | Whole q -> (
                     match List.assoc_opt q qubit_env with
                     | Some hw -> hw
                     | None -> fail op.op_line "unknown gate-body qubit %S" q)
                   | Indexed _ ->
                     fail op.op_line "indexing is not allowed inside gate bodies")
                 op.op_args)
          in
          apply_gate env (depth + 1) op.op_line op.op_name values operands)
        def.g_body)

(* Broadcast a top-level gate call over whole-register arguments. *)
let resolve_call env line name param_values (args : arg list) =
  let lookup_qreg r =
    match List.assoc_opt r env.qregs with
    | Some v -> v
    | None -> fail line "unknown quantum register %S" r
  in
  let sizes =
    List.filter_map
      (function Whole r -> Some (snd (lookup_qreg r)) | Indexed _ -> None)
      args
  in
  (* Size-1 registers act as scalars; all larger registers must agree. *)
  let width =
    match List.sort_uniq compare (List.filter (fun s -> s > 1) sizes) with
    | [] -> 1
    | [ n ] -> n
    | _ -> fail line "broadcast registers must have equal sizes"
  in
  for k = 0 to width - 1 do
    let qs =
      Array.of_list
        (List.map
           (function
             | Whole r ->
               let base, size = lookup_qreg r in
               base + (if size = 1 then 0 else k)
             | Indexed (r, i) ->
               let base, size = lookup_qreg r in
               if i < 0 || i >= size then
                 fail line "index %d out of bounds for %S[%d]" i r size;
               base + i)
           args)
    in
    apply_gate env 0 line name param_values qs
  done

(* ---------- Statements ---------- *)

let parse_gate_def st env =
  let line = cur_line st in
  advance st (* 'gate' *);
  let name = expect_ident st in
  let params =
    match (current st).tok with
    | Sym '(' ->
      advance st;
      if (current st).tok = Sym ')' then begin
        advance st;
        []
      end
      else begin
        let rec collect acc =
          let p = expect_ident st in
          match (current st).tok with
          | Sym ',' ->
            advance st;
            collect (p :: acc)
          | _ ->
            expect_sym st ')';
            List.rev (p :: acc)
        in
        collect []
      end
    | _ -> []
  in
  let rec qubits acc =
    let q = expect_ident st in
    match (current st).tok with
    | Sym ',' ->
      advance st;
      qubits (q :: acc)
    | _ -> List.rev (q :: acc)
  in
  let qs = qubits [] in
  expect_sym st '{';
  let rec body acc =
    match (current st).tok with
    | Sym '}' ->
      advance st;
      List.rev acc
    | Ident "barrier" ->
      advance st;
      let rec skip () =
        match (current st).tok with
        | Sym ';' -> advance st
        | Eof -> fail (cur_line st) "unterminated gate body"
        | _ ->
          advance st;
          skip ()
      in
      skip ();
      body acc
    | Eof -> fail (cur_line st) "unterminated gate body"
    | _ -> body (parse_gate_op st :: acc)
  in
  let g_body = body [] in
  if List.mem_assoc name env.defs then fail line "gate %S already defined" name;
  env.defs <- (name, { g_params = params; g_qubits = qs; g_body }) :: env.defs

let parse_measure st env =
  let line = cur_line st in
  advance st (* 'measure' *);
  let src = parse_arg st in
  (match (current st).tok with Arrow -> advance st | _ -> fail line "expected ->");
  let dst = parse_arg st in
  expect_sym st ';';
  let qreg r =
    match List.assoc_opt r env.qregs with
    | Some v -> v
    | None -> fail line "unknown quantum register %S" r
  in
  let creg r =
    match List.assoc_opt r env.cregs with
    | Some v -> v
    | None -> fail line "unknown classical register %S" r
  in
  let record qubit cbit =
    if List.mem_assoc cbit env.readout then fail line "classical bit measured twice";
    if List.exists (fun (_, q) -> q = qubit) env.readout then
      fail line "qubit measured twice";
    env.readout <- (cbit, qubit) :: env.readout;
    tick env line 1;
    env.gates <- Ir.Gate.Measure qubit :: env.gates
  in
  match (src, dst) with
  | Indexed (q, i), Indexed (c, j) ->
    let qb, qs = qreg q and cb, cs = creg c in
    if i >= qs then fail line "index %d out of bounds for %S" i q;
    if j >= cs then fail line "index %d out of bounds for %S" j c;
    record (qb + i) (cb + j)
  | Whole q, Whole c ->
    let qb, qs = qreg q and cb, cs = creg c in
    if qs <> cs then fail line "register-wide measure needs equal sizes";
    for k = 0 to qs - 1 do
      record (qb + k) (cb + k)
    done
  | _ -> fail line "measure must be index->index or register->register"

let parse st =
  let env =
    {
      qregs = [];
      cregs = [];
      next_qubit = 0;
      next_cbit = 0;
      defs = [];
      gates = [];
      readout = [];
      expanded = 0;
    }
  in
  (* Header. *)
  (match (current st).tok with
  | Ident "OPENQASM" ->
    advance st;
    (match (current st).tok with Real _ | Nat _ -> advance st | _ -> ());
    expect_sym st ';'
  | _ -> fail (cur_line st) "missing OPENQASM header");
  let rec statements () =
    match (current st).tok with
    | Eof -> ()
    | Ident "include" ->
      advance st;
      (match (current st).tok with
      | Str _ -> advance st
      | _ -> fail (cur_line st) "include expects a string");
      expect_sym st ';';
      statements ()
    | Ident "qreg" ->
      let line = cur_line st in
      advance st;
      let name = expect_ident st in
      expect_sym st '[';
      let size = expect_nat st in
      expect_sym st ']';
      expect_sym st ';';
      if size <= 0 then fail line "qreg %S must have positive size" name;
      if List.mem_assoc name env.qregs then fail line "qreg %S already declared" name;
      Ir.Circuit.check_register ~layer:"qasm" ~line ~used:env.next_qubit name size;
      env.qregs <- env.qregs @ [ (name, (env.next_qubit, size)) ];
      env.next_qubit <- env.next_qubit + size;
      statements ()
    | Ident "creg" ->
      let line = cur_line st in
      advance st;
      let name = expect_ident st in
      expect_sym st '[';
      let size = expect_nat st in
      expect_sym st ']';
      expect_sym st ';';
      if List.mem_assoc name env.cregs then fail line "creg %S already declared" name;
      Ir.Circuit.check_register ~layer:"qasm" ~line ~used:env.next_cbit name size;
      env.cregs <- env.cregs @ [ (name, (env.next_cbit, size)) ];
      env.next_cbit <- env.next_cbit + size;
      statements ()
    | Ident "gate" ->
      parse_gate_def st env;
      statements ()
    | Ident "measure" ->
      parse_measure st env;
      statements ()
    | Ident "barrier" ->
      advance st;
      let rec skip () =
        match (current st).tok with
        | Sym ';' -> advance st
        | Eof -> fail (cur_line st) "unterminated barrier"
        | _ ->
          advance st;
          skip ()
      in
      skip ();
      statements ()
    | Ident ("if" | "reset" | "opaque") ->
      fail (cur_line st) "%S is not supported (the gate IR is measurement-terminal)"
        (match (current st).tok with Ident s -> s | _ -> "")
    | Ident _ ->
      let op = parse_gate_op st in
      let values = List.map (eval_param op.op_line []) op.op_params in
      resolve_call env op.op_line op.op_name values op.op_args;
      statements ()
    | _ -> fail (cur_line st) "unexpected token"
  in
  statements ();
  if env.next_qubit = 0 then raise (Error ("program declares no qubits", 1));
  let measured = List.map snd (List.sort compare env.readout) in
  let qubit_names =
    List.concat_map
      (fun (name, (base, size)) ->
        List.init size (fun i -> (Printf.sprintf "%s[%d]" name i, base + i)))
      env.qregs
  in
  {
    circuit = Ir.Circuit.create env.next_qubit (List.rev env.gates);
    measured;
    qubit_names;
  }

let parse source = parse { tokens = tokenize source }

let parse_file path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse source
