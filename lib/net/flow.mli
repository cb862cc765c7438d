(** Credit-based end-to-end flow control with the §5.1 overflow path.

    Typhoon's network interface has finite buffering; §5.1 describes the
    escape hatch: when the network (or the receiver) cannot absorb a send,
    the message is redirected into a user-level overflow buffer and a
    status handler later drains it.  This module models that machinery as
    credit-based backpressure per (src, dst, virtual network):

    - each pair×vnet starts with a configured number of credits; a direct
      send consumes one, and the credit returns when the receiver's NP
      {e finishes executing} the message's handler (end-to-end, not
      link-level);
    - a sender out of credits {e parks} the message: a CPU-side sender
      blocks its thread ({!Tt_sim.Thread.await_unit}) until the message
      drains; a handler-side sender — which must run to completion and can
      never block — spills into the node's bounded overflow buffer
      instead;
    - returning credits post a {e drain chore} on the parked sender's NP
      (§5.1's second-level status-handler dispatch), which releases parked
      messages in order, wakes blocked threads, and finally reports the
      remaining backlog to the node's registered status handler;
    - the response vnet has its own credit pool, so parked responses never
      wait on request credits and the NP's response-first priority (the
      deadlock-avoidance argument of §5.1) survives parking: parked
      responses may overtake parked requests, never the reverse.

    Cross-vnet ordering: the {!Reliable} transport sequences both vnets of
    a (src,dst) pair in send order, and the coherence layers above rely on
    it (data before invalidation).  Parking preserves that order for
    everything except the response-overtakes-request case, which is
    exactly the reordering the NP dispatch priority already performs.

    When even the overflow buffer is full, the send raises
    {!Overload.Overload} with a diagnostic naming the node, its per-pair
    occupancies and credit levels, and the transport's outstanding
    retransmissions — never a silent hang.

    {2 Timing with ample credits}

    The layer is always on.  With credits ample (the defaults: more
    credits than the transport's send window can ever use), every send
    takes the direct path, which is pure integer bookkeeping — no events,
    no charges, no allocation — so it adds no simulated cycles; the
    pinned rows in [test/test_regression.ml] and [test/test_flow.ml]
    hold that. *)

type t

val create :
  Reliable.t ->
  nodes:int ->
  request_credits:int ->
  response_credits:int ->
  spill_capacity:int ->
  spill_cost:int ->
  drain_cost:int ->
  status_cost:int ->
  unit ->
  t
(** Credits are per (src,dst,vnet); [spill_capacity] bounds each node's
    overflow buffer (total parked handler-side messages, all destinations).
    The three costs are NP occupancy charges: per spilled message, per
    drained message, and per drain-chore dispatch.
    @raise Invalid_argument on non-positive credits or node count. *)

val set_hooks :
  t ->
  post:(int -> (unit -> unit) -> unit) ->
  clock:(int -> int) ->
  charge:(int -> int -> unit) ->
  status:(int -> pending:int -> unit) ->
  unit
(** Install the machine hooks (once, after the NPs exist): [post node
    chore] schedules a drain chore on [node]'s NP; [clock node] is the
    node's NP-local time (drained messages enter the wire at it); [charge
    node c] charges [c] cycles of NP occupancy; [status node ~pending]
    invokes the node's user-registered status handler after a drain. *)

val send_from_handler : t -> at:int -> Message.t -> unit
(** Send from NP handler context (run-to-completion — cannot block).  Out
    of credits, the message spills into the node's overflow buffer.
    @raise Overload.Overload when the overflow buffer is full. *)

val send_from_cpu : t -> at:int -> Tt_sim.Thread.t -> Message.t -> unit
(** Send from a CPU thread.  Out of credits, the thread parks until the
    drain chore releases the message — the caller resumes after the
    message is on the wire.  Callers must not hold NP state across the
    suspension. *)

val credit_return : t -> src:int -> dst:int -> Message.vnet -> unit
(** The receiver's NP finished a message from [src]; its credit returns.
    Posts a drain chore on [src] iff the returning credit makes a parked
    message releasable (ample credits never schedule anything). *)

val deadlock : t -> string option
(** Probe the waits-for graph: an edge src→dst exists when src has parked
    traffic for dst that is not currently releasable.  Returns a rendered
    cycle ("waits-for cycle 0 -> 2 -> 0 (…occupancies…)") or [None].
    Meaningful only across a window with no delivered progress — see
    {!Tt_harness.Watchdog}; transient cycles that in-flight credit
    returns are about to break are the caller's to filter. *)

val node_queued : t -> int -> int
(** Parked messages (blocked + spilled) originating at a node. *)

val peak_queued : t -> int
(** High-water mark of any single node's parked count. *)

val describe : t -> string
(** Occupancy summary of every node with parked traffic (for watchdog
    [Expired] diagnostics). *)

val stats : t -> Tt_util.Stats.t
(** Counters: [flow.blocked] (CPU senders parked), [flow.spilled]
    (handler sends redirected to the overflow buffer), [flow.drained]
    (parked messages released), [flow.drain_chores] (status dispatches),
    [flow.peak_queued]. *)
