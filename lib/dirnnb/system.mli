(** The DirNNB baseline machine (§6): a conventional all-hardware,
    directory-based, invalidation cache-coherence system over the same
    nodes, caches and network as Typhoon.

    Shared pages live at their home node's memory; every node can access
    every shared page (hardware DSM — there are no page faults and no
    access tags).  Cache misses that a clean local access cannot satisfy
    become directory transactions, charged with Table 2's DirNNB cost
    formulas: a remote miss costs [23 + (5..16 if replacement) +
    network/directory cost + 34]; a directory operation costs [16 + 11 if a
    block is received + 5 per message sent + 11 if a block is sent]; a
    remote cache invalidation costs [8 + 5..16 if replacement]. *)

type t

val create :
  ?reliability:Tt_net.Reliable.policy -> Tt_sim.Engine.t -> Params.t -> t

val engine : t -> Tt_sim.Engine.t

val params : t -> Params.t

val nnodes : t -> int

val fabric : t -> Tt_net.Fabric.t

val net : t -> Tt_net.Reliable.t

val map_shared_page : t -> vpage:int -> home:int -> unit
(** Bind [vpage] to [home] in the page-home map and allocate its backing
    page there, outside the allocator (tests place pages by hand).
    @raise Invalid_argument if [vpage] already has a home. *)

val page_home : t -> vpage:int -> int
(** The page's home, read from the machine's one {!Tt_mem.Homes} map.
    @raise Invalid_argument for an unallocated page. *)

val alloc :
  t -> th:Tt_sim.Thread.t -> node:int -> ?home:int -> ?align:int ->
  bytes:int -> unit -> int
(** Allocate from the shared segment through {!Tt_mem.Homes}, the same
    allocator and round-robin placement Stache uses (matching the paper's
    "no careful data placement" setup), so both systems see identical
    data layouts and homes for identical allocation sequences.  Charges
    10 cycles plus 50 per fresh page. *)

val home_mem : t -> int -> Tt_mem.Pagemem.t

val cpu_cache : t -> int -> Tt_cache.Cache.t

val directory : t -> int -> Directory.t
(** Home directory of a node (for tests and invariant checks). *)

val node_stats : t -> int -> Tt_util.Stats.t
(** Counters: [accesses], [local_misses], [remote_misses], [upgrades],
    [invals_received], [writebacks], [recalls]. *)

val merged_stats : t -> Tt_util.Stats.t

val delivered : t -> int
(** Protocol messages executed across all directory controllers — the
    delivery-progress metric the {!Tt_harness.Watchdog} no-progress budget
    watches. *)

val queue_summary : t -> string
(** One-line controller-inbox occupancy summary for watchdog
    diagnostics. *)

val cpu_access :
  t -> node:int -> Tt_sim.Thread.t -> Tt_mem.Tag.access -> int -> unit

val cpu_read_f64 : t -> node:int -> Tt_sim.Thread.t -> int -> float

val cpu_write_f64 : t -> node:int -> Tt_sim.Thread.t -> int -> float -> unit

val cpu_read_int : t -> node:int -> Tt_sim.Thread.t -> int -> int

val cpu_write_int : t -> node:int -> Tt_sim.Thread.t -> int -> int -> unit

val check_invariants : t -> (unit, string) result
(** Protocol invariants over all directories and caches: at most one owner,
    owner excludes sharers, an exclusively-cached line is registered at the
    directory, no transaction left pending.  Intended for quiescent points
    (barriers, end of run). *)

(** {2 Crash-stop recovery}

    The hardware-protocol counterpart of {!Tt_stache}'s recovery entry
    points, driven by the same {!Tt_harness.Recovery} layer.  DirNNB's
    write-through-for-values model makes the split simple: a dead sharer
    or owner loses only directory bookkeeping (values are canonical at
    home memory); only pages homed on the victim lose content and need
    the checkpoint. *)

val set_is_dead : t -> (int -> bool) -> unit
(** Install the liveness verdict.  Besides the repair passes, the grant
    path consults it: a transaction whose requester died completes to an
    idle state instead of granting ownership into the void. *)

val set_on_dirty : t -> (vpage:int -> unit) option -> unit
(** Write observer for checkpoint dirty tracking, fired on every CPU
    store (all of which land in home memory).  Pure bookkeeping: charges
    no simulated cycles. *)

val noop_handler : int
(** Handler id of the recovery no-op sink — the rewrite target for
    {!Tt_net.Reliable.scrub_unacked}. *)

val snapshot_page : t -> vpage:int -> Bytes.t option
(** Checkpoint assist: a copy of [vpage]'s canonical content from home
    memory (always authoritative on DirNNB — every store lands there), or
    [None] for an unallocated page.  Zero simulated cost. *)

val on_node_death :
  t -> dead:int -> new_home:int -> restore:(vpage:int -> Bytes.t option) ->
  unit
(** Repair after [dead]'s confirmed crash: drop its cache lines, re-home
    its pages to [new_home] (content from [restore ~vpage], which must be
    [None] unless the page is provably clean since its last snapshot;
    directory rebuilt from the survivors' cache states), purge it from
    surviving directories (sharer bits, owed acks, stuck recalls, parked
    requests), and re-issue survivors' outstanding misses whose home
    died.
    @raise Tt_net.Faults.Unrecoverable when a re-homed page has no clean
    checkpoint — the caller must roll back. *)

val on_node_rejoin : t -> node:int -> unit
(** The victim resumed heartbeating: clear its stale writeback
    bookkeeping and re-send its outstanding misses to each block's
    current home.  Call after the transport scrub and replay
    ({!Tt_net.Reliable.on_peer_alive}). *)
