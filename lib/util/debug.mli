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
