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

    A message is an ordinary GC-owned record: a handler may keep what it
    is given (the message, its argument array and its data bytes) for as
    long as it likes.  Senders hand over the arrays they pass, so a send
    site that builds a fresh [[| ... |]] literal per send never shares it. *)

type vnet = Request | Response

val vnet_to_string : vnet -> string

type t = {
  src : int;
  dst : int;
  vnet : vnet;
  mutable handler : int;  (** registered handler id — the "handler PC" *)
  args : int array;
  data : Bytes.t;
  mutable seq : int;  (** {!Reliable} sequence number; -1 = unsequenced *)
  mutable ack : int;  (** piggybacked cumulative ack; -1 = none *)
}
(** [handler], [seq] and [ack] are mutable because {!Reliable} stamps and
    scrubs them in place. *)

val max_payload_words : int
(** 20, as in Typhoon (the CM-5 allowed only five). *)

val words : t -> int
(** Packet payload size in 32-bit words (1 + |args| + ⌈|data|/4⌉). *)

val make :
  src:int -> dst:int -> vnet:vnet -> handler:int -> args:int array ->
  data:Bytes.t -> t
(** A message referencing [args] and [data] (neither is copied).  [seq] and
    [ack] start at -1 (no transport envelope); they are stamped by
    {!Reliable} and ride in the envelope word, so {!words} is unchanged.
    @raise Invalid_argument if the packet exceeds {!max_payload_words}. *)

val dummy : t
(** A placeholder message for container slots (heap dummies, ring fills).
    Never sent. *)
