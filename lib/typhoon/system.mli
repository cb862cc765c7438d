(** The Typhoon machine (§5): workstation-like nodes, each with a CPU
    (cache + TLB), local memory with block tags, and a network-interface
    processor, connected by a two-virtual-network fabric.

    This module implements the Tempest interface on the simulated hardware:
    {!endpoint} returns a node's {!Tempest.t} whose operations charge
    simulated cost to whoever executes them (NP handlers, or the CPU thread
    inside {!with_cpu_context}).

    The CPU access path ({!cpu_read_f64} and friends) implements Table 1's
    tag-checked [read]/[write]: TLB lookup, cache lookup, and on a bus
    transaction the NP's snoop; accesses the tags deny become block-access
    faults that suspend the calling thread until a user-level handler
    resumes it. *)

type t

val create :
  ?reliability:Tt_net.Reliable.policy -> Tt_sim.Engine.t -> Params.t -> t
(** Builds [params.nodes] nodes and wires the fabric.  User protocol code
    must then register its handlers via {!handlers} before any CPU thread
    touches protocol-managed pages. *)

val engine : t -> Tt_sim.Engine.t

val params : t -> Params.t

val nnodes : t -> int

val handlers : t -> Tempest.Handlers.tables

val fabric : t -> Tt_net.Fabric.t

val net : t -> Tt_net.Reliable.t

val endpoint : t -> int -> Tempest.t

val node_mem : t -> int -> Tt_mem.Pagemem.t

val node_np : t -> int -> Np.t

val cpu_cache : t -> int -> Tt_cache.Cache.t

val cpu_tlb : t -> int -> Tt_mem.Tlb.t

val node_stats : t -> int -> Tt_util.Stats.t
(** Counters: [block_faults], [page_faults], [upgrades], [local_misses],
    [accesses]. *)

val set_on_dirty :
  t -> (node:int -> vpage:int -> forced:bool -> unit) option -> unit
(** Install a write observer for checkpoint dirty tracking: fired on every
    successful CPU store ([forced:false], the writing node's own copy) and
    every NP forced write ([forced:true] — writebacks, data installs,
    custom-protocol updates; the observer can filter on the written page's
    mode).  Pure bookkeeping: charges no simulated cycles, so installing it
    never changes any run's timing. *)

val merged_stats : t -> Tt_util.Stats.t
(** All node counters plus network traffic and the [flow.*] counters,
    merged. *)

(** {2 Finite buffering (§5.1)} *)

val delivered : t -> int
(** Total NP work items executed machine-wide — the progress metric the
    {!Tt_harness.Watchdog} no-progress budget watches: a stationary value
    across a window means the machine is wedged. *)

val queue_summary : t -> string
(** One-line occupancy summary (NP ring depths, parked flow-control
    traffic) for watchdog diagnostics. *)

val deadlock_probe : t -> string option
(** {!Tt_net.Flow.deadlock} on the flow layer; [None] when no waits-for
    cycle exists. *)

(** {2 CPU-side execution} *)

val with_cpu_context : t -> node:int -> Tt_sim.Thread.t -> (unit -> 'a) -> 'a
(** Run CPU-resident protocol/library code (allocation, setup): endpoint
    operations performed inside [f] charge the thread instead of the NP.
    [f] must not suspend — with one exception: a send as the {e last}
    operation may block on flow-control credits (the context would be
    restored wrong across an effect suspension mid-body, but nothing reads
    it after a tail send). *)

val cpu_access :
  t -> node:int -> Tt_sim.Thread.t -> Tt_mem.Tag.access -> int -> unit
(** Perform one tag-checked access to [vaddr]; blocks through faults until
    it completes.  Exposed for tests; applications use the typed wrappers. *)

val cpu_read_f64 : t -> node:int -> Tt_sim.Thread.t -> int -> float

val cpu_write_f64 : t -> node:int -> Tt_sim.Thread.t -> int -> float -> unit

val cpu_read_int : t -> node:int -> Tt_sim.Thread.t -> int -> int

val cpu_write_int : t -> node:int -> Tt_sim.Thread.t -> int -> int -> unit
