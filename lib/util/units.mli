(** Unit formatting and conversions shared by reports and simulators. *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable bytes: 824 -> "824B", 63963136 -> "61.0MB". Binary
    (1024-based) units. *)

val pp_ns : Format.formatter -> float -> unit
(** Nanoseconds with automatic promotion to us/ms/s. *)

val pp_watts : Format.formatter -> float -> unit
(** Watts with automatic mW/W scaling. *)

val kib : int -> int
val mib : int -> int

val ns_of_cycles : cycles:int -> ghz:float -> float
(** Wall time in nanoseconds of [cycles] at [ghz] GHz. *)

val cycles_of_ns : ns:float -> ghz:float -> int
(** Clock cycles covering [ns] nanoseconds at [ghz] GHz (rounded up). *)
