(** Growable array (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val of_list : 'a list -> 'a t

val clear : 'a t -> unit
(** Empty the vector and drop its storage. *)

val reset : 'a t -> unit
(** Empty the vector but keep its storage for reuse (no allocation on the
    next pushes).  The kept array still references the old elements;
    use only where holding them is harmless (e.g. waiter lists holding
    run-lifetime threads). *)

val truncate : 'a t -> int -> unit
(** Shrink the vector to its first [n] elements, keeping storage (same
    retention caveat as {!reset}).  @raise Invalid_argument if [n] is
    negative or larger than the current length. *)
