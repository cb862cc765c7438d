(** User-level reliable delivery over an unreliable fabric.

    Tempest's thesis is that policy — including reliability policy — lives
    in user software.  This module is that policy: a sequence-numbered,
    cumulative-ack, retransmit-with-backoff transport layered above the raw
    {!Fabric} (optionally behind a {!Faults} injector), in the shape of the
    user-level DSM transports built over unreliable interconnects.

    Under [Perfect] the module is an exact pass-through to {!Fabric} —
    same calls, same event schedule, bit-identical simulations.  Under
    [Flaky cfg] every remote message is stamped with a per-(src,dst)-pair
    sequence number, queued until the peer's cumulative ack covers it, and
    retransmitted on timeout with exponential backoff; receivers suppress
    duplicates and reassemble in order through a bounded window.  Acks
    piggyback on any reverse-pair traffic and are emitted standalone after a
    short idle delay.  A link that makes no progress for [max_retries]
    consecutive timeouts raises {!Link_failed}, so a dead (e.g. 100%-drop)
    network terminates the run instead of hanging.

    Sequencing is per (src,dst) {e pair}, spanning both virtual networks —
    deliberately stronger than per-(src,dst,vnet): the raw fabric's
    constant latency preserves pair FIFO across vnets, and Stache depends
    on it (a data grant on the response net followed by an invalidation on
    the request net must not be reordered).  Fault {e rates} remain
    per-vnet via {!Faults.config}.  Node-to-self messages short-circuit the
    network (§5.1) and are neither faulted nor sequenced. *)

type policy = Perfect | Flaky of Faults.config

exception Link_failed of string
(** A channel exhausted its retry budget with no ack progress. *)

exception Peer_dead of string
(** The liveness protocol ({!set_liveness}) declared the destination dead
    and no recovery layer is listening ({!set_death_notice} unset): the
    prompt, diagnosed notification that replaces a full retransmission
    storm.  With a recovery layer installed the channel parks instead. *)

type t

val create :
  ?base_rto:int -> ?rto_cap:int -> ?max_retries:int -> ?ack_delay:int ->
  ?window:int -> Tt_sim.Engine.t -> Fabric.t -> policy -> t
(** Transport tuning (Flaky only): [base_rto] initial retransmit timeout
    (default 24×latency), [rto_cap] backoff ceiling (default 64×base_rto),
    [max_retries] consecutive no-progress timeouts before {!Link_failed}
    (default 10), [ack_delay] idle delay before a standalone ack (default
    2×latency), [window] per-pair reassembly window (default 512).

    Under [Flaky], installs itself as every node's fabric receiver; the
    machine's real receivers must then be registered via {!set_receiver}. *)

val policy : t -> policy

val send : t -> at:int -> Message.t -> unit
(** Drop-in replacement for {!Fabric.send}. *)

val set_receiver : t -> node:int -> (Message.t -> unit) -> unit
(** Drop-in replacement for {!Fabric.set_receiver}; under [Flaky] the
    callback sees exactly-once, per-pair in-order messages. *)

val set_liveness : t -> is_dead:(int -> bool) -> unit
(** Install the user-level liveness verdict.  Retransmit timers and new
    sends consult it: a channel whose destination is declared dead parks
    (keeping its unacked queue) instead of burning retries — converting a
    retransmission storm into either a {!Peer_dead} raise or a
    {!set_death_notice} callback.  Flaky only. *)

val set_death_notice : t -> (src:int -> dst:int -> unit) option -> unit
(** When set, a dead-peer encounter parks the channel and invokes the
    callback instead of raising {!Peer_dead} — the hook the recovery layer
    uses to take over.  Flaky only. *)

val on_peer_death : t -> node:int -> unit
(** Park every channel toward [node] now (verdict notification): cancel
    retransmit timers, keep unacked queues for a possible rejoin.  No-op
    under [Perfect]. *)

val on_peer_alive : t -> node:int -> unit
(** Revive channels in both directions after [node]'s heartbeats resume:
    reset backoff and replay held queues.  Replays count as
    [reliable.rejoin_retransmits], never against the watchdog's
    [reliable.retransmits] budget.  No-op under [Perfect]. *)

val scrub_unacked : t -> node:int -> handler:int -> int
(** Neutralize every held message touching [node]: rewrite the handler id
    of unacked-queue and reassembly-table residents in both directions to
    [handler] (a recovery-registered no-op), preserving sequence numbers so
    replayed queues keep per-pair ordering intact.  Called by the recovery
    layer at the death verdict (survivors' queues toward the victim hold
    stale grants and invalidations) and again at rejoin (the victim's own
    held queues hold pre-crash-era requests and data).  Returns the number
    of messages scrubbed; [0] under [Perfect].
    @raise Invalid_argument for a negative (transport-internal) handler. *)

val fabric : t -> Fabric.t
(** The wrapped fabric (its size, latency and bandwidth model). *)

val stats : t -> Tt_util.Stats.t
(** Counters (Flaky only): [reliable.data_sent], [reliable.retransmits],
    [reliable.acks_sent], [reliable.dup_dropped], [reliable.window_drops],
    [reliable.rejoin_retransmits]. *)

val fault_stats : t -> Tt_util.Stats.t option
(** The wrapped {!Faults} injector's counters (None under [Perfect]). *)

val retransmits : t -> int
(** Total retransmitted messages so far — the watchdog's progress budget. *)

val faults : t -> Faults.t option
(** The wrapped {!Faults} injector itself (None under [Perfect]) — the
    torture harness taps it to record, mask, and replay fault decisions. *)
