exception Error of string * int * int

type state = {
  mutable tokens : Token.t list;
  mutable loops : int;  (** enclosing [for] loops *)
}

(* Deeper nesting fails at once instead of recursing on hostile input. *)
let max_loop_depth = 512

let current st =
  match st.tokens with
  | tok :: _ -> tok
  | [] -> assert false (* the stream is Eof-terminated *)

let error_at (tok : Token.t) msg = raise (Error (msg, tok.line, tok.col))

let advance st =
  match st.tokens with
  | _ :: ((_ :: _) as rest) -> st.tokens <- rest
  | [ _ ] | [] -> ()

let expect st kind =
  let tok = current st in
  if tok.Token.kind = kind then advance st
  else
    error_at tok
      (Printf.sprintf "expected %s but found %s" (Token.kind_name kind)
         (Token.kind_name tok.Token.kind))

let expect_ident st =
  let tok = current st in
  match tok.Token.kind with
  | Ident name ->
    advance st;
    name
  | other -> error_at tok (Printf.sprintf "expected an identifier, found %s" (Token.kind_name other))

let expect_int st =
  let tok = current st in
  match tok.Token.kind with
  | Int n ->
    advance st;
    n
  | other -> error_at tok (Printf.sprintf "expected an integer, found %s" (Token.kind_name other))

(* Integer expressions: term-level precedence for * / %, then + -. *)
let rec int_expr st =
  let lhs = int_term st in
  int_expr_rest st lhs

and int_expr_rest st lhs =
  let tok = current st in
  match tok.Token.kind with
  | Plus ->
    advance st;
    int_expr_rest st (Ast.Binop (Ast.Add, lhs, int_term st))
  | Minus ->
    advance st;
    int_expr_rest st (Ast.Binop (Ast.Sub, lhs, int_term st))
  | _ -> lhs

and int_term st =
  let lhs = int_atom st in
  int_term_rest st lhs

and int_term_rest st lhs =
  let tok = current st in
  match tok.Token.kind with
  | Star ->
    advance st;
    int_term_rest st (Ast.Binop (Ast.Mul, lhs, int_atom st))
  | Slash ->
    advance st;
    int_term_rest st (Ast.Binop (Ast.Div, lhs, int_atom st))
  | Percent ->
    advance st;
    int_term_rest st (Ast.Binop (Ast.Mod, lhs, int_atom st))
  | _ -> lhs

and int_atom st =
  let tok = current st in
  match tok.Token.kind with
  | Int n ->
    advance st;
    Ast.Int_lit n
  | Ident name ->
    advance st;
    Ast.Var name
  | Minus ->
    advance st;
    Ast.Binop (Ast.Sub, Ast.Int_lit 0, int_atom st)
  | Lparen ->
    advance st;
    let e = int_expr st in
    expect st Token.Rparen;
    e
  | other -> error_at tok (Printf.sprintf "expected an integer expression, found %s" (Token.kind_name other))

(* Float (angle) expressions. *)
let rec float_expr st =
  let lhs = float_term st in
  float_expr_rest st lhs

and float_expr_rest st lhs =
  let tok = current st in
  match tok.Token.kind with
  | Plus ->
    advance st;
    float_expr_rest st (Ast.Fbinop (Ast.Fadd, lhs, float_term st))
  | Minus ->
    advance st;
    float_expr_rest st (Ast.Fbinop (Ast.Fsub, lhs, float_term st))
  | _ -> lhs

and float_term st =
  let lhs = float_atom st in
  float_term_rest st lhs

and float_term_rest st lhs =
  let tok = current st in
  match tok.Token.kind with
  | Star ->
    advance st;
    float_term_rest st (Ast.Fbinop (Ast.Fmul, lhs, float_atom st))
  | Slash ->
    advance st;
    float_term_rest st (Ast.Fbinop (Ast.Fdiv, lhs, float_atom st))
  | _ -> lhs

and float_atom st =
  let tok = current st in
  match tok.Token.kind with
  | Float f ->
    advance st;
    Ast.Float_lit f
  | Kw_pi ->
    advance st;
    Ast.Pi
  | Int n ->
    advance st;
    Ast.Of_int (Ast.Int_lit n)
  | Ident name ->
    advance st;
    Ast.Of_int (Ast.Var name)
  | Minus ->
    advance st;
    Ast.Fneg (float_atom st)
  | Lparen ->
    advance st;
    let e = float_expr st in
    expect st Token.Rparen;
    e
  | other -> error_at tok (Printf.sprintf "expected an angle expression, found %s" (Token.kind_name other))

let qubit_ref st =
  let register = expect_ident st in
  let tok = current st in
  match tok.Token.kind with
  | Lbracket ->
    advance st;
    let index = int_expr st in
    expect st Token.Rbracket;
    { Ast.register; index = Some index }
  | _ -> { Ast.register; index = None }

(* Number of leading angle arguments each parameterized gate takes. *)
let angle_arity name =
  match name with
  | "Rx" | "Ry" | "Rz" | "U1" | "XX" -> 1
  | "Rxy" | "U2" -> 2
  | "U3" -> 3
  | _ -> 0

let rec stmt st =
  let tok = current st in
  match tok.Token.kind with
  | Kw_qbit | Kw_cbit ->
    let line = tok.Token.line in
    advance st;
    let name = expect_ident st in
    let size =
      match (current st).Token.kind with
      | Lbracket ->
        advance st;
        let n = expect_int st in
        expect st Token.Rbracket;
        n
      | _ -> 1
    in
    expect st Token.Semicolon;
    (match tok.Token.kind with
    | Kw_cbit -> None (* classical bits are implicit in measurement *)
    | _ -> Some (Ast.Decl { name; size; line }))
  | Kw_for ->
    let line = tok.Token.line in
    if st.loops >= max_loop_depth then
      Ir.Diag.invalid ~rule:"circuit.bounds" ~layer:"scaffold" ~loc:(Ir.Diag.Line line)
        "for loops nested deeper than %d levels" max_loop_depth;
    advance st;
    let var = expect_ident st in
    expect st Token.Kw_in;
    let from_ = int_expr st in
    expect st Token.Dotdot;
    let to_ = int_expr st in
    st.loops <- st.loops + 1;
    let body = block st in
    st.loops <- st.loops - 1;
    Some (Ast.For { var; from_; to_; body; line })
  | Kw_measure ->
    let line = tok.Token.line in
    advance st;
    expect st Token.Lparen;
    let target = qubit_ref st in
    expect st Token.Rparen;
    expect st Token.Semicolon;
    (match target.Ast.index with
    | Some _ -> Some (Ast.Measure_stmt { target; line })
    | None -> Some (Ast.Measure_all { register = target.Ast.register; line }))
  | Ident name ->
    let line = tok.Token.line in
    advance st;
    expect st Token.Lparen;
    let n_angles = angle_arity name in
    let angles = ref [] in
    for i = 0 to n_angles - 1 do
      if i > 0 then expect st Token.Comma;
      angles := float_expr st :: !angles
    done;
    let qubits = ref [] in
    let first = ref (n_angles = 0) in
    let rec collect () =
      match (current st).Token.kind with
      | Rparen -> ()
      | _ ->
        if not !first then expect st Token.Comma else first := false;
        qubits := qubit_ref st :: !qubits;
        collect ()
    in
    collect ();
    expect st Token.Rparen;
    expect st Token.Semicolon;
    Some
      (Ast.Gate
         { name; angles = List.rev !angles; qubits = List.rev !qubits; line })
  | other -> error_at tok (Printf.sprintf "unexpected %s" (Token.kind_name other))

and block st =
  expect st Token.Lbrace;
  let rec collect acc =
    match (current st).Token.kind with
    | Rbrace ->
      advance st;
      List.rev acc
    | Eof -> error_at (current st) "unexpected end of input inside block"
    | _ -> (
      match stmt st with Some s -> collect (s :: acc) | None -> collect acc)
  in
  collect []

(* "qbit a, qbit b" parameter lists. *)
let params st =
  expect st Token.Lparen;
  let rec collect acc first =
    match (current st).Token.kind with
    | Rparen ->
      advance st;
      List.rev acc
    | _ ->
      if not first then expect st Token.Comma;
      expect st Token.Kw_qbit;
      let name = expect_ident st in
      if List.mem name acc then error_at (current st) (Printf.sprintf "duplicate parameter %S" name);
      collect (name :: acc) false
  in
  collect [] true

let module_def st =
  let tok = current st in
  expect st Token.Kw_module;
  let name = expect_ident st in
  let ps = params st in
  let body = block st in
  { Ast.name; params = ps; body; line = tok.Token.line }

let parse source =
  let tokens =
    try Lexer.tokenize source
    with Lexer.Error (msg, line, col) -> raise (Error (msg, line, col))
  in
  let st = { tokens; loops = 0 } in
  let rec collect acc =
    match (current st).Token.kind with
    | Eof -> List.rev acc
    | Kw_module -> collect (module_def st :: acc)
    | other ->
      error_at (current st)
        (Printf.sprintf "expected a module definition, found %s" (Token.kind_name other))
  in
  let modules = collect [] in
  if modules = [] then error_at (current st) "empty program";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (m : Ast.module_def) ->
      if Hashtbl.mem seen m.Ast.name then
        raise (Error (Printf.sprintf "module %S defined twice" m.Ast.name, m.Ast.line, 1));
      Hashtbl.add seen m.Ast.name ())
    modules;
  { Ast.modules }
