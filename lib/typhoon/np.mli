(** Network-interface processor (§5, Figure 2).

    The NP is a run-to-completion, non-preemptive handler engine with its
    own cycle clock.  Work arrives as incoming messages (two virtual
    networks), block-access faults from the snooped bus (the BAF buffer),
    page faults, and deferred chores (bulk-transfer packetization).  The
    dispatch loop drains work in priority order: response messages first
    (so request handlers can never starve responses — §5.1's deadlock rule),
    then faults, then request messages, then deferred work.

    Handler semantics are supplied by the machine model through [exec];
    the NP itself only sequences work and accounts time. *)

type work =
  | Message of Tt_net.Message.t
  | Block_fault of Tempest.fault
  | Page_fault of {
      vaddr : int;
      access : Tt_mem.Tag.access;
      resumption : Tempest.resumption;
    }
  | Deferred of (unit -> unit)
      (** lowest priority; runs when both send queues would be idle (used by
          the block-transfer unit, §5.2) *)

type t

val create :
  Tt_sim.Engine.t ->
  rtlb:Tt_mem.Tlb.t ->
  dcache:Tt_cache.Cache.t ->
  ?capacity:int ->
  ?name:string ->
  unit ->
  t
(** [capacity] (default unbounded) caps each of the four work rings; a
    post beyond it raises {!Tt_net.Overload.Overload} naming the ring, its
    occupancies, and [name] (default ["np"] — machines pass ["np<id>"] so
    the diagnostic identifies the node).  With the {!Tt_net.Flow} credit
    layer above, an ample capacity is a safety net that credits keep
    unreachable. *)

val set_exec : t -> (work -> unit) -> unit
(** Install the handler-execution function (must be done before any
    {!post}).  Separate from {!create} to break the node/NP knot. *)

val set_msg_exec : t -> (Tt_net.Message.t -> unit) -> unit
(** Install a direct message executor, bypassing the [work] variant box
    that the default (routing through [set_exec]'s function) would
    allocate per message. *)

val set_deferred_exec : t -> ((unit -> unit) -> unit) -> unit
(** Same, for deferred chores. *)

val post : t -> at:int -> work -> unit
(** Enqueue work that becomes visible to the dispatch loop at time [at]
    (the causing bus transaction or message arrival), and start the loop if
    the NP is idle.  Ready times must be monotone per work class.

    Work items sharing a timestamp drain in a single engine event: after
    each handler the loop continues inline whenever no other engine event
    is due at or before the NP clock (via {!Tt_sim.Engine.skip_to}), which
    is observably identical to the one-event-per-item schedule. *)

val post_message : t -> at:int -> Tt_net.Message.t -> unit
(** [post t ~at (Message m)] without allocating the variant box; the
    message lands on the ring matching its virtual network. *)

val post_deferred : t -> at:int -> (unit -> unit) -> unit
(** [post t ~at (Deferred f)] without allocating the variant box. *)

val clock : t -> int

val charge : t -> int -> unit
(** Charge instruction cycles to the NP clock (only meaningful while a
    handler is executing). *)

val rtlb : t -> Tt_mem.Tlb.t

val dcache : t -> Tt_cache.Cache.t

val busy : t -> bool

val handled : t -> int
(** Total work items executed. *)

val busy_cycles : t -> int
(** Cycles spent executing handlers (NP utilization). *)

val depth : t -> int
(** Items currently queued across all four rings (occupancy probe for
    watchdog diagnostics). *)
