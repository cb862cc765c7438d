(** Per-block protocol event tracing.

    Set the environment variable [TT_DEBUG_BLOCK] to a block identifier
    (for DirNNB a global block number, for Stache a block-base virtual
    address; decimal or 0x-prefixed) and every protocol event touching that
    block is streamed to stderr.

    A trace site is written [if Debug.on ~key then Debug.log ~key fmt …].
    {!log} formats its message before it can test the key, so the guard is
    what makes tracing free: with the variable unset, or naming another
    block, a guarded site is one integer comparison.  It runs no [Printf]
    code, evaluates none of its arguments, and allocates nothing. *)

val target : int option
(** The requested block key, parsed once at startup. *)

val on : key:int -> bool
(** [on ~key] is [true] iff [key] is the requested {!target}.  Allocates
    nothing. *)

val log : key:int -> ('a, unit, string, unit) format4 -> 'a
(** [log ~key fmt …] prints to stderr iff [on ~key].  Guard each call with
    {!on}: unguarded, it formats the message on every call. *)

(** {2 Buffer-pool debugging} *)

val set_pool_debug : bool -> unit
(** Enable/disable pool debugging at runtime (the test suite turns it on).
    Initial value comes from the [TT_POOL_DEBUG] environment variable
    ([1] or [true] enables it). *)

val pool_debug : unit -> bool
(** When true, released pool buffers are poisoned (filled with [0xDE]) so
    use-after-release reads garbage deterministically, and releasing the
    same buffer twice is rejected with [Invalid_argument] instead of
    silently aliasing one buffer under two owners.  Released pooled
    messages likewise get their mutable fields poisoned. *)
