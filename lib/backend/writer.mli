(** The one text writer behind the vendor emitters: direct [Buffer]
    writes, no format interpretation per gate, and each distinct angle
    formatted once per text. *)

type t

(** [start head text] is a new text whose first line is [head ^ text]. *)
val start : string -> string -> t

val contents : t -> string
val str : t -> string -> unit
val int : t -> int -> unit

(** [angle w a] writes [a] as [%.17g]; signed zeros and NaNs are printed
    as their bits say ("-0", "-nan"). *)
val angle : t -> float -> unit

(** [ints w qs] and [angles w xs] write each operand after one space. *)
val ints : t -> int list -> unit
val angles : t -> float list -> unit

(** "target: <machine>, compiler: <name>, calibration day <d>". *)
val target : Triq.Compiled.t -> string
