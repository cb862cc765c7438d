(** Conservative (lookahead-window) parallel discrete-event simulation
    across OCaml 5 domains.

    A group partitions the simulated machine's actors over [partitions]
    private sequential {!Engine}s and advances them in lockstep windows of
    [lookahead] simulated cycles — the fabric's minimum cross-node latency
    ([Params.net_latency] for the Typhoon machines).  Within a window,
    partitions drain their queues concurrently; cross-partition schedules
    must go through {!post}, which buffers them in bounded SPSC
    {!Mailbox}es drained at the window-edge barrier in a fixed
    (source, FIFO) order.

    Determinism: each partition engine's drain order — and therefore its
    packed (time, salt, seq) event-key log, its [Engine.now], and all
    simulated state — is bit-identical for every [domains] count,
    including 1.  {!run} with [domains = 1] on the calling domain is the
    oracle the parallel run is checked against (see test_parallel.ml).

    Validity contract: an event executing on partition [p] may mutate only
    [p]-owned state, and may schedule onto partition [q <> p] only via
    {!post} at [now + lookahead] or later.  {!post} enforces the time
    bound; state ownership is the caller's discipline (the partitioned
    {!Tt_net.Fabric} routing upholds it for fabric messages). *)

exception Mailbox_full of string
(** A cross-partition mailbox hit its capacity bound; the message names the
    (src, dst) pair and the capacity knob. *)

type t

val create :
  ?mailbox_capacity:int ->
  partitions:int ->
  lookahead:int ->
  unit ->
  t
(** [mailbox_capacity] bounds each directed partition-pair mailbox
    (default 8192 posts, rounded up to a power of two). *)

val partitions : t -> int

val engine : t -> int -> Engine.t
(** The partition's private engine.  Only the domain currently running the
    partition may touch it (always true inside event callbacks). *)

val lookahead : t -> int

val post : t -> src:int -> dst:int -> int -> (unit -> unit) -> unit
(** [post t ~src ~dst time fn] schedules [fn] at absolute [time] on
    partition [dst], called from an event executing on partition [src].
    Same-partition posts are plain [Engine.at]; cross-partition posts must
    satisfy [time >= now src + lookahead] (raises [Invalid_argument]
    otherwise) and are handed over at the next window edge.  Raises
    {!Mailbox_full} when the pair's mailbox is at capacity. *)

val run :
  ?domains:int ->
  ?limit:int ->
  ?on_window:(floor:int -> epoch:int -> unit) ->
  t ->
  bool
(** Advance the group window by window until every engine and mailbox is
    empty ([true]) or the next window would start past [limit] ([false],
    mirroring [Engine.run_until]).  [domains = 1] (default) drives every
    partition on the calling domain; [domains = n] spawns [n - 1] extra
    domains (clamped to [partitions]).  [on_window] runs on the
    coordinator before each window — the per-window watchdog slicing hook:
    raise from it to abort the run with that exception.  If any partition's
    event raises, the group shuts down at the next window edge and the
    exception is re-raised here. *)

val epochs : t -> int
(** Windows completed so far. *)

val floor : t -> int
(** Start time of the current (or last) window. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map over independent work items (the harness
    sweep grids): results are in input order, and a failure re-raises the
    earliest item's exception.  [domains <= 1] degrades to [List.map] on
    the calling domain.  Items must not share mutable state. *)
