(** A dense int-keyed array in front of an {!Inttbl}.

    Keys index an array over a window that grows by doubling to take in
    new keys while it spans at most 65536 of them; a key beyond that is
    not held.  The owner keeps every binding in an {!Inttbl} as well (the
    record, and the {!Inttbl.iter} order) and falls back to it when {!get}
    returns [absent].  Suited to clustered keys such as the pages of a
    bump-allocated heap. *)

type 'a t

val create : absent:'a -> 'a t

val get : 'a t -> int -> 'a
(** The value held for a key, or [absent]; allocates nothing. *)

val set : 'a t -> int -> 'a -> bool
(** Hold a value for a key (set [absent] to drop it); [false], holding
    nothing, when the key is too far from those already held. *)
