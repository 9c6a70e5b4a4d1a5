(* The angle table is keyed on the float's bits: [Hashtbl.hash] and
   [compare] take [-0.0] for [0.0], so a float key would print "-0" as "0". *)

external format_float : string -> float -> string = "caml_format_float"

module Bits = Hashtbl.Make (struct
  type t = int64
  let equal = Int64.equal
  let hash = Hashtbl.hash
end)

type t = { buf : Buffer.t; angles : string Bits.t }

let contents w = Buffer.contents w.buf
let str w s = Buffer.add_string w.buf s

(* Digit by digit: [string_of_int] parses a "%d" format on every call. *)
let rec int w i =
  if i < 0 then str w (string_of_int i)
  else (if i >= 10 then int w (i / 10); Buffer.add_char w.buf (Char.chr (48 + (i mod 10))))

(* The one [%.17g] of the emitters, through the primitive [Printf] calls
   for it. *)
let angle w a =
  let bits = Int64.bits_of_float a in
  match Bits.find_opt w.angles bits with
  | Some s -> str w s
  | None ->
    let s = format_float "%.17g" a in
    Bits.add w.angles bits s;
    str w s

let ints w qs = List.iter (fun q -> str w " "; int w q) qs
let angles w xs = List.iter (fun x -> str w " "; angle w x) xs

let start head text =
  let w = { buf = Buffer.create 1024; angles = Bits.create 16 } in
  str w head; str w text; str w "\n";
  w

let target (c : Triq.Compiled.t) =
  String.concat ""
    [ "target: "; c.machine.Device.Machine.name; ", compiler: "; c.compiler;
      ", calibration day "; string_of_int c.day ]
