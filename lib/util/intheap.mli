(** Monomorphic int-keyed binary min-heap.

    The specialized event queue backing {!Tt_sim.Engine} and the fabric's
    in-flight messages: keys are immediate ints compared with inline [<]/[>]
    (no comparator closure, no polymorphic compare).  Payloads sit in a slab
    indexed by slot, recycled through a free-slot stack, and the heap itself
    orders [(key, slot)] int pairs.  Sifting thus moves only ints: a push or
    pop writes one payload reference (one write barrier), whatever the
    heap's depth, and allocates nothing once capacity is reached. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] builds an empty heap.  [dummy] fills free slab
    slots, so a popped or cleared payload is no longer reachable from the
    heap (and [dummy] is returned by nothing); [capacity] preallocates the
    backing arrays (default 256), which double when full. *)

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
