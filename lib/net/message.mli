(** Active messages (§2.1 / §5.1).

    A message names a destination node and a receive-handler (the first
    payload word in Typhoon; here a registered handler id), followed by
    argument words and optional raw block data.  The CM-5-derived network
    carries at most twenty 32-bit payload words per packet; we enforce that
    limit, counting the handler word, one word per argument and the data
    rounded up to words.

    Two virtual networks provide deadlock avoidance (§5.1): pure
    request/response protocols send requests on the low-priority net and
    responses on the high-priority net.

    Messages come in two flavours sharing one type: ordinary records built
    with {!make} (owned by the GC, [pool_rc = -1]) and pooled records from
    {!Pool.acquire} (explicitly refcounted and recycled through the
    machine's per-vnet freelists so the steady-state send path allocates
    nothing). *)

type vnet = Request | Response

val vnet_to_string : vnet -> string

type t = {
  mutable src : int;
  mutable dst : int;
  mutable vnet : vnet;
  mutable handler : int;  (** registered handler id — the "handler PC" *)
  mutable args : int array;
  mutable data : Bytes.t;
  mutable seq : int;  (** {!Reliable} sequence number; -1 = unsequenced *)
  mutable ack : int;  (** piggybacked cumulative ack; -1 = none *)
  mutable pool_rc : int;
      (** -1 = ordinary (never pooled), 0 = in a freelist, n≥1 = live pooled
          message with [n] owners.  Managed by {!Pool}; do not touch. *)
}

val max_payload_words : int
(** 20, as in Typhoon (the CM-5 allowed only five). *)

val words : t -> int
(** Packet payload size in 32-bit words (1 + |args| + ⌈|data|/4⌉). *)

val make :
  src:int -> dst:int -> vnet:vnet -> handler:int -> ?args:int array ->
  ?data:Bytes.t -> ?seq:int -> ?ack:int -> unit -> t
(** [seq] and [ack] default to -1 (no transport envelope); they are stamped
    by {!Reliable} and ride in the envelope word, so {!words} is unchanged.
    The result is an ordinary GC-owned message ([pool_rc = -1]); releasing
    or retaining it is a no-op.
    @raise Invalid_argument if the packet exceeds {!max_payload_words}. *)

val dummy : t
(** A placeholder message for container slots (heap dummies, ring fills).
    Never sent; never released. *)

type msg = t
(** The message type under a second name, for {!Pool}'s signature, whose
    own [t] is the pool. *)

(** Explicit-ownership message freelists, bucketed by (vnet, argument
    arity) so a recycled record's args array is always the right size and
    the two deadlock-avoidance nets never share buffers.

    A pool is owned by one machine: its {!Fabric} creates it, and every
    layer that sends or consumes that machine's messages reaches it through
    the fabric ({!Fabric.pool}) or the transport over it.  A machine runs on
    one domain, so the pool needs no lock and no domain-local lookup.

    Ownership protocol: {!acquire} returns a message with refcount 1 owned
    by the caller; whoever consumes the message last calls {!release} on
    the same machine's pool.  A component that stores a message beyond its
    turn (e.g. {!Reliable}'s retransmission queue) must {!retain} it first.
    Handlers may read a delivered message during the handler call only —
    after the handler returns, the dispatcher releases it and the record may
    be recycled into the very next send. *)
module Pool : sig
  type t

  val create : unit -> t
  (** Empty freelists and a fresh set of scratch arrays. *)

  val acquire :
    t -> src:int -> dst:int -> vnet:vnet -> handler:int -> ?args:int array ->
    ?data:Bytes.t -> ?seq:int -> ?ack:int -> unit -> msg
  (** Like {!make} but drawing from the freelist when possible.  [args] is
      copied into the message (so callers may pass a {!scratch} array and
      refill it immediately); [data] is referenced, not copied — ownership
      of the bytes follows the message.  When the arity exceeds the packet
      limit this degrades to a fresh {!make} with copied args.
      @raise Invalid_argument if the packet exceeds {!max_payload_words}. *)

  val acquire_raw :
    t -> src:int -> dst:int -> vnet:vnet -> handler:int -> args:int array ->
    data:Bytes.t -> msg
  (** {!acquire} without optional arguments, for the steady-state send
      path: supplying a value for an optional argument makes the call site
      box it in [Some], so {!acquire}'s convenience costs two minor words
      per supplied option.  [seq]/[ack] start at -1.  Same copy semantics
      as {!acquire}. *)

  val retain : msg -> unit
  (** Add an owner.  No-op on ordinary messages.
      @raise Invalid_argument on a message already in the freelist. *)

  val release : t -> msg -> unit
  (** Drop an owner; on the last release the record returns to the pool's
      freelist (fields poisoned first under {!Tt_util.Debug.pool_debug}).
      No-op on ordinary messages.
      @raise Invalid_argument on double-release (refcount already 0). *)

  val scratch : t -> int -> int array
  (** [scratch p n] is the pool's scratch array of length [n] for building
      argument lists without allocating.  Fill it, pass it to {!acquire}
      (which copies synchronously), then reuse it freely.  Not reentrant:
      do not hold a scratch array across another send of the same arity. *)

  val free_count : t -> int
  (** Total messages currently sitting in the pool's freelists
      (diagnostics). *)
end
