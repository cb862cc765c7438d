(** Network-interface processor (§5, Figure 2).

    The NP is a run-to-completion, non-preemptive handler engine: a
    {!Tt_sim.Ctrl} controller, with its own cycle clock, over four work
    rings.  Work arrives as incoming messages (two virtual networks),
    block-access faults from the snooped bus (the BAF buffer) and page
    faults, and deferred chores (bulk-transfer packetization).  The loop
    drains work in priority order: response messages first (so request
    handlers can never starve responses — §5.1's deadlock rule), then
    faults, then request messages, then deferred work.  An item becomes
    visible at the ready time it was posted with; with nothing ready the
    NP idles until the earliest one.

    The machine model supplies handler semantics through {!install}. *)

type fault =
  | Block_fault of Tempest.fault
  | Page_fault of {
      vaddr : int;
      access : Tt_mem.Tag.access;
      resumption : Tempest.resumption;
    }

type t

val create :
  Tt_sim.Engine.t ->
  rtlb:Tt_mem.Tlb.t ->
  dcache:Tt_cache.Cache.t ->
  ?capacity:int ->
  ?name:string ->
  unit ->
  t
(** [capacity] (default [65536]) caps each of the four work rings; a post
    beyond it raises {!Tt_net.Overload.Overload} naming the ring, its
    occupancies, and [name] (default ["np"] — machines pass ["np<id>"] so
    the diagnostic identifies the node).  With the {!Tt_net.Flow} credit
    layer above, the default is a safety net that credits keep
    unreachable. *)

val install :
  t ->
  message:(Tt_net.Message.t -> unit) ->
  fault:(fault -> unit) ->
  deferred:((unit -> unit) -> unit) ->
  unit
(** Install the handler executors, one per kind of work (before any
    post).  Separate from {!create} to break the node/NP knot. *)

val post_message : t -> at:int -> Tt_net.Message.t -> unit
(** Enqueue a message on its virtual network's ring, ready at [at] (the
    causing bus transaction or message arrival), and start the loop if
    the NP is idle.  Ready times must be monotone per ring, here and in
    the other posts. *)

val post_fault : t -> at:int -> fault -> unit

val post_deferred : t -> at:int -> (unit -> unit) -> unit
(** Lowest priority; used by the block-transfer unit (§5.2) and the flow
    layer's drain chores. *)

val clock : t -> int

val charge : t -> int -> unit
(** Charge instruction cycles to the NP clock (only meaningful while a
    handler is executing). *)

val rtlb : t -> Tt_mem.Tlb.t

val dcache : t -> Tt_cache.Cache.t

val handled : t -> int
(** Total work items executed. *)

val busy_cycles : t -> int
(** Cycles spent executing handlers (NP utilization). *)

val depth : t -> int
(** Items currently queued across all four rings (occupancy probe for
    watchdog diagnostics). *)
