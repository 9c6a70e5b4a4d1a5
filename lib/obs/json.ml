type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string * int

(* ---------- writer ---------- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Shortest of %.12g .. %.17g that parses back to the same float; integral
   values print without an exponent or trailing dot so they stay valid
   JSON. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 12

let to_string ?(pretty = false) v =
  let b = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string b (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char b '\n' in
  let str s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s -> str s
    | List [] -> Buffer.add_string b "[]"
    | List xs -> members depth '[' ']' (fun x -> go (depth + 1) x) xs
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      members depth '{' '}'
        (fun (k, x) ->
          str k;
          Buffer.add_string b (if pretty then ": " else ":");
          go (depth + 1) x)
        kvs
  and members : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun depth opening closing item xs ->
    Buffer.add_char b opening;
    nl ();
    List.iteri
      (fun i x ->
        if i > 0 then begin
          Buffer.add_char b ',';
          nl ()
        end;
        pad (depth + 1);
        item x)
      xs;
    nl ();
    pad depth;
    Buffer.add_char b closing
  in
  go 0 v;
  Buffer.contents b

(* ---------- reader ---------- *)

let max_depth = 512

let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let skip c = !pos < n && src.[!pos] = c && (incr pos; true) in
  let rec skip_ws () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if not (skip c) then
      fail
        (if !pos >= n then Printf.sprintf "expected %C, found end of input" c
         else Printf.sprintf "expected %C, found %C" c src.[!pos])
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub src !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal (expected " ^ word ^ ")")
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit = function
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let u = ref 0 in
    for i = 0 to 3 do
      u := (!u lsl 4) lor digit src.[!pos + i]
    done;
    pos := !pos + 4;
    !u
  in
  (* One \uXXXX escape (the "\u" already consumed), or a surrogate pair
     written as two of them. *)
  let code_point () =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      if not (skip '\\' && skip 'u') then fail "unpaired high surrogate";
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired high surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else hi
  in
  (* Called just past the opening quote. *)
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match src.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents b
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        let e = src.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | e ->
          decr pos;
          fail (Printf.sprintf "unsupported escape \\%c" e));
        go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character in string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let s = !pos in
      while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
        incr pos
      done;
      !pos > s
    in
    ignore (skip '-');
    if not (skip '0' || digits ()) then fail "bad number";
    let integral = !pos in
    if skip '.' && not (digits ()) then fail "bad number: digits expected after '.'";
    if skip 'e' || skip 'E' then begin
      ignore (skip '+' || skip '-');
      if not (digits ()) then fail "bad number: digits expected in exponent"
    end;
    let text = String.sub src start (!pos - start) in
    match if !pos = integral then int_of_string_opt text else None with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  in
  (* The members of an array or object, the opening bracket consumed. *)
  let elements closing item =
    skip_ws ();
    if skip closing then []
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        if skip ',' then go (x :: acc)
        else if skip closing then List.rev (x :: acc)
        else fail (Printf.sprintf "expected ',' or %C" closing)
      in
      go []
  in
  let rec value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match src.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' ->
      incr pos;
      Str (string_body ())
    | ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | '[' ->
      incr pos;
      List (elements ']' (fun () -> value (depth + 1)))
    | '{' ->
      incr pos;
      Obj
        (elements '}' (fun () ->
             skip_ws ();
             expect '"';
             let k = string_body () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = value 0 in
  skip_ws ();
  if !pos < n then fail (Printf.sprintf "trailing input starting with %C" src.[!pos]);
  v

(* ---------- accessors ---------- *)

let member name = function
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Json.member: missing %S" name))
  | _ -> invalid_arg (Printf.sprintf "Json.member: %S on a non-object" name)

let member_opt name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> invalid_arg "Json.to_float: not a number"

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f && Float.abs f < 0x1p62 -> int_of_float f
  | _ -> invalid_arg "Json.to_int: not an integer"

let to_bool = function Bool b -> b | _ -> invalid_arg "Json.to_bool: not a boolean"
let to_str = function Str s -> s | _ -> invalid_arg "Json.to_str: not a string"
let to_list = function List l -> l | _ -> invalid_arg "Json.to_list: not an array"
