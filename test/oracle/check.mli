(** The failure every oracle check reports. *)

exception Mismatch of string
(** A fast path disagreed with its oracle.  The message names the layer,
    the query or epoch, and both answers. *)

val fail : layer:string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~layer fmt ...] raises {!Mismatch} with a formatted message
    prefixed by [layer]. *)

val same_bits : float -> float -> bool
(** Bitwise float equality (distinguishes [0.] from [-0.]; [nan] equals
    itself). *)

val result : (unit -> 'a) -> ('a, string) result
(** Run a check, turning {!Mismatch} into [Error message]. *)
