type severity = Error | Warning | Info

type loc =
  | Nowhere
  | Line of int
  | Gate of int
  | Qubit of int
  | Pair of int * int

type t = {
  severity : severity;
  rule : string;
  layer : string;
  loc : loc;
  message : string;
}

let make ?(severity = Error) ?(loc = Nowhere) ~rule ~layer message =
  { severity; rule; layer; loc; message }

let errorf ~rule ~layer ?loc fmt =
  Printf.ksprintf (fun message -> make ~severity:Error ?loc ~rule ~layer message) fmt

let warnf ~rule ~layer ?loc fmt =
  Printf.ksprintf (fun message -> make ~severity:Warning ?loc ~rule ~layer message) fmt

let infof ~rule ~layer ?loc fmt =
  Printf.ksprintf (fun message -> make ~severity:Info ?loc ~rule ~layer message) fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let loc_string = function
  | Nowhere -> ""
  | Line l -> Printf.sprintf "line %d" l
  | Gate i -> Printf.sprintf "gate %d" i
  | Qubit q -> Printf.sprintf "q%d" q
  | Pair (a, b) -> Printf.sprintf "q%d-q%d" a b

let render d =
  let where = match loc_string d.loc with "" -> "" | s -> " @ " ^ s in
  Printf.sprintf "%s[%s] %s%s: %s" (severity_name d.severity) d.rule d.layer where
    d.message

let pp fmt d = Format.pp_print_string fmt (render d)

let to_json d =
  let open Obs.Json in
  let loc =
    match d.loc with
    | Nowhere -> Null
    | Line l -> Obj [ ("line", Int l) ]
    | Gate i -> Obj [ ("gate", Int i) ]
    | Qubit q -> Obj [ ("qubit", Int q) ]
    | Pair (a, b) -> Obj [ ("qubits", List [ Int a; Int b ]) ]
  in
  Obj
    [
      ("severity", Str (severity_name d.severity));
      ("rule", Str d.rule);
      ("layer", Str d.layer);
      ("loc", loc);
      ("message", Str d.message);
    ]

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let loc_rank = function
  | Nowhere -> (0, 0, 0)
  | Line l -> (1, l, 0)
  | Gate i -> (2, i, 0)
  | Qubit q -> (3, q, 0)
  | Pair (a, b) -> (4, a, b)

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = Stdlib.compare (loc_rank a.loc) (loc_rank b.loc) in
      if c <> 0 then c else Stdlib.compare a.message b.message

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let error_count ds = List.length (List.filter is_error ds)

exception Violation of string * t list

let violation_message pass diags =
  String.concat "\n"
    (Printf.sprintf "pass %S violated %d invariant(s):" pass (List.length diags)
    :: List.map (fun d -> "  " ^ render d) diags)

let () =
  Printexc.register_printer (function
    | Violation (pass, diags) -> Some (violation_message pass diags)
    | _ -> None)

let invalid ~rule ~layer ?loc fmt =
  Printf.ksprintf
    (fun message -> invalid_arg (render (make ~severity:Error ?loc ~rule ~layer message)))
    fmt
