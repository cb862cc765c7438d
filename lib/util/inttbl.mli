(** Int-keyed hash table, a drop-in for [(int, 'a) Hashtbl.t].

    The bucket layout is Stdlib.Hashtbl's: the same bucket count for a given
    [create] size, the same hash ({!hash} equals [Hashtbl.hash] on every
    int), head insertion, and the same order-preserving doubling resize.  A
    table fed the same operations as a [Hashtbl.t] therefore visits its
    bindings in the same order through {!iter}, {!fold} and {!to_seq}, so
    swapping one for the other cannot move any walk.  What it drops is the
    generic machinery: the hash is computed inline, keys compare with [=] on
    ints, and lookups allocate nothing ({!find_or}, {!mem}).  As with
    [Hashtbl], the table must not be modified from inside {!iter} or
    {!fold}. *)

type 'a t

val hash : int -> int
(** [hash k = Hashtbl.hash k]. *)

val create : int -> 'a t
(** [create n]: an empty table sized like [Hashtbl.create n]. *)

val length : 'a t -> int

val clear : 'a t -> unit
(** Remove every binding, keeping the bucket array. *)

val reset : 'a t -> unit
(** Remove every binding and shrink back to the initial bucket array. *)

val add : 'a t -> int -> 'a -> unit
(** [add t k v] binds [k], hiding (not removing) an earlier binding. *)

val replace : 'a t -> int -> 'a -> unit
(** [replace t k v] rebinds the most recent binding of [k], or adds one. *)

val remove : 'a t -> int -> unit
(** Remove the most recent binding of a key, restoring any hidden one. *)

val find : 'a t -> int -> 'a
(** @raise Not_found when the key is unbound. *)

val find_opt : 'a t -> int -> 'a option

val find_or : 'a t -> int -> default:'a -> 'a
(** [find_or t k ~default]: the binding of [k], or [default]; allocates
    nothing. *)

val mem : 'a t -> int -> bool

val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val to_seq : 'a t -> (int * 'a) Seq.t
