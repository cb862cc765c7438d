(** Sharer sets in the paper's 64-bit per-block directory layout (§3).

    "The protocol preallocates 64 bits per cache block — two bytes for state
    and six one-byte pointers.  If more than six pointers are required, the
    current implementation uses the first four pointers as a bit vector."

    We keep that exact representation: up to six explicit node pointers,
    overflowing into a 32-bit-capable bit vector (32-node systems fit).
    Conversions are counted ({!overflow_events}), so a caller can report
    how often overflow happens. *)

type t

val create : nodes:int -> t
(** Empty set; [nodes] must be ≤ the bit-vector width for overflow to be
    representable. *)

val add : t -> int -> unit

val remove : t -> int -> unit

val mem : t -> int -> bool

val count : t -> int

val is_empty : t -> bool

val to_list : t -> int list
(** Ascending order. *)

val clear : t -> unit

val is_overflowed : t -> bool
(** Currently using the bit-vector representation. *)

val overflow_events : t -> int
(** Number of pointer→vector conversions over this set's lifetime. *)
