(** Fixed-capacity bit set.

    Used for directory sharer vectors (the DirNNB full-map directory and the
    Stache bit-vector overflow representation) and page-residence maps. *)

type t

val create : int -> t
(** [create n] is an empty set over the universe [\[0, n)]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int
(** Population count; O(words + members). *)

val is_empty : t -> bool

val exists_except : t -> int -> bool
(** [exists_except t i] is [true] iff [t] has a member other than [i]
    ([i] need not be in range).  Allocation-free; stops at the first
    non-empty word. *)

val iter : (int -> unit) -> t -> unit
(** Visit members in increasing order. *)

val to_list : t -> int list
(** Members in increasing order. *)

val clear : t -> unit

val copy : t -> t

val equal : t -> t -> bool
