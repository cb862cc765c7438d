(** Monomorphic int-keyed binary min-heap.

    The specialized event queue backing {!Tt_sim.Engine}: keys are immediate
    ints compared with inline [<]/[>] (no comparator closure, no polymorphic
    compare), and key/payload live in parallel flat arrays so pushing or
    popping allocates nothing. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] builds an empty heap.  [dummy] fills unused payload
    slots (and is returned by nothing); [capacity] preallocates the backing
    arrays (default 256). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push t key v] inserts [v] with priority [key] (minimum first). *)

val min_key : 'a t -> int
(** Key of the minimum element without removing it.
    @raise Invalid_argument on an empty heap. *)

val pop_exn : 'a t -> 'a
(** Remove the minimum element and return its payload.  Use {!min_key}
    first when the key is also needed.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
(** Empty the heap, releasing payload references but keeping capacity. *)
