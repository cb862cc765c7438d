(** The shared heap segment (§2.3) and its page-home map.

    One value per machine holds the bump-allocation cursor over the
    user-reserved shared segment starting at {!heap_base}, the round-robin
    placement cursor, and the binding of every allocated virtual page to
    its home node.  Stache and DirNNB both allocate through it, so the two
    machines see identical data layouts and homes for identical allocation
    sequences; neither keeps a copy of the map.  A page changes home only
    when crash recovery re-homes it ({!rehome}), which bumps a generation
    counter so callers can validate memoized lookups.

    The map charges no simulated cycles: each machine charges its own
    allocation and lookup costs around these calls. *)

type t

val heap_base : int
(** First address of the shared segment, [0x1000_0000]. *)

val create : nodes:int -> t
(** An empty heap over [nodes] nodes; the first round-robin page goes to
    node 0. *)

val alloc :
  t -> home:int option -> align:int -> bytes:int ->
  place:(vpage:int -> home:int -> unit) -> int
(** Bump-allocate [bytes] at the next [align]-aligned address and return
    it.  Every page the range touches that has no home yet is bound —
    to [home] when pinned, else round-robin — and then passed to [place],
    in ascending order, for the machine to map.  A pinned allocation that
    would start on a page homed elsewhere starts on a fresh page instead.
    @raise Invalid_argument for a non-positive size or an alignment that
    is not a power of two. *)

val find : t -> int -> int
(** [find t vpage]: the home of [vpage], or [-1] when it is unallocated.
    Allocates nothing. *)

val home : t -> vpage:int -> int
(** @raise Invalid_argument for an unallocated page. *)

val bind : t -> vpage:int -> home:int -> unit
(** Bind one page outside the allocator (a machine mapping a page by
    hand).  @raise Invalid_argument if [vpage] already has a home. *)

val rehome : t -> vpage:int -> home:int -> unit
(** Move an allocated page to a new home and bump {!generation}.
    @raise Invalid_argument for an unallocated page. *)

val generation : t -> int
(** Number of {!rehome} calls so far. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f vpage home] for every binding, in
    {!Tt_util.Inttbl.iter} order. *)

val bindings : t -> (int * int) list
(** Every [(vpage, home)] binding, sorted by [vpage]. *)
