(** Uniform facade over the two target machines, and the catalogue of
    every named machine ({!names}, {!of_name}).

    The experiment runner and the benchmarks program against this record, so
    the same application binary (an {!Tt_app.Env.t} consumer) runs on
    DirNNB, Typhoon/Stache, or Typhoon with a custom protocol installed. *)

(** Where a {!t.sync} hook runs. *)
type point =
  | Pre_barrier
      (** before entering every barrier: update-family protocols flush
          dirty blocks and await acks here, before any other processor
          can pass the barrier and read them *)
  | Post_barrier
      (** after every barrier release: the checkpoint layer snapshots
          shared pages here, and the adaptive machine reclassifies *)
  | Pre_release  (** before every lock release, like [Pre_barrier] *)

(** A machine's crash-recovery entry points, the one interface through
    which {!Recovery} detects, repairs and checkpoints (DESIGN §6.3 "One
    recovery contract"). *)
type recovery = {
  set_is_dead : (int -> bool) -> unit;
      (** install the liveness verdict the repair passes consult *)
  set_on_dirty : (vpage:int -> unit) option -> unit;
      (** install the checkpoint's dirty observer, fired on every CPU
          store (never on protocol-forced writes) *)
  noop_handler : int;
      (** the no-op sink {!Tt_net.Reliable.scrub_unacked} rewrites
          undeliverable messages to *)
  snapshot_page : vpage:int -> Bytes.t option;
      (** the page's authoritative content, or [None] while home memory
          is stale *)
  on_node_death :
    dead:int -> new_home:int -> restore:(vpage:int -> Bytes.t option) -> unit;
      (** re-home the victim's pages and purge it from the directories *)
  on_node_rejoin : node:int -> unit;
      (** drop a rejoining node's crash-era bookkeeping *)
}

type t = {
  label : string;
  engine : Tt_sim.Engine.t;
  mparams : Params.t;
  net : Tt_net.Reliable.t;
      (** the machine's transport layer; [Tt_net.Reliable.Perfect] unless a
          [reliability] knob was passed at construction *)
  read : node:int -> Tt_sim.Thread.t -> int -> float;
  write : node:int -> Tt_sim.Thread.t -> int -> float -> unit;
  read_int : node:int -> Tt_sim.Thread.t -> int -> int;
  write_int : node:int -> Tt_sim.Thread.t -> int -> int -> unit;
  alloc :
    node:int -> Tt_sim.Thread.t -> ?home:int -> int -> int;
      (** bytes → shared virtual address *)
  mprefetch : node:int -> Tt_sim.Thread.t -> int -> unit;
      (** nonbinding prefetch hint (no-op on DirNNB) *)
  node_stats : int -> Tt_util.Stats.t;
      (** the per-node counter group (merged into {!merged_stats}); the
          runner interns the per-CPU suspension counters here *)
  merged_stats : unit -> Tt_util.Stats.t;
  check_invariants : unit -> (unit, string) result;
  delivered : unit -> int;
      (** monotone delivered-work counter — {!Watchdog}'s progress probe *)
  queues : unit -> string;
      (** queue-occupancy summary for watchdog diagnostics *)
  deadlock : unit -> string option;
      (** flow-control waits-for-cycle probe (always [None] on DirNNB,
          whose hardware protocol has no finite-credit layer) *)
  hooks : (string, node:int -> Tt_sim.Thread.t -> unit) Hashtbl.t;
      (** protocol-specific operations exposed to applications *)
  special_allocs :
    (string, node:int -> Tt_sim.Thread.t -> ?home:int -> int -> int) Hashtbl.t;
      (** named allocators for custom-protocol memory; applications reach
          them through {!Tt_app.Env.t.alloc_kind} *)
  mutable sync : point -> proc:int -> Tt_sim.Thread.t -> unit;
      (** the synchronization hook chain: {!Run.spmd}'s environment calls
          it on every participant at each {!point}.  A no-op until a
          protocol or recovery layer extends it with {!add_sync}. *)
  mutable liveness : (unit -> string) option;
      (** liveness census (e.g. {!Tt_net.Liveness.summary}) appended to
          watchdog expiry diagnostics; [None] outside recovery runs.  A
          diagnostic probe, not a sync point. *)
  recovery : recovery option;
      (** [Some] on {!typhoon_stache_full} and {!dirnnb_full}; [None] on
          the machines whose per-page protocol state lies outside these
          entry points (["update"], the zoo, ["adaptive"]) *)
}

val add_sync : t -> (point -> proc:int -> Tt_sim.Thread.t -> unit) -> unit
(** Extend the hook chain: the new hook runs after every hook installed
    before it, at every point. *)

val names : string list
(** Every machine {!of_name} builds: ["dirnnb"], ["stache"], ["update"]
    (the hand-written EM3D protocol), the zoo (["migratory"],
    ["prodcons"], ["widerep"], ["delayed"]) and ["adaptive"]. *)

val of_name : ?reliability:Tt_net.Reliable.policy -> string -> Params.t -> t
(** The named machine, built by the constructor below that carries it.
    @raise Invalid_argument for unknown names, listing {!names}. *)

val recoverable : unit -> string list
(** The {!names} whose machine carries {!t.recovery} entry points, in
    {!names} order (builds each machine once, at one node). *)

val typhoon_stache :
  ?reliability:Tt_net.Reliable.policy -> Params.t -> t
(** A fresh Typhoon machine with the Stache library installed.
    [reliability] (default [Perfect]) selects the transport policy: under
    [Flaky cfg] all remote traffic crosses a {!Tt_net.Faults} injector and
    the user-level {!Tt_net.Reliable} transport. *)

val typhoon_stache_full :
  ?reliability:Tt_net.Reliable.policy -> Params.t ->
  t * Tt_typhoon.System.t * Tt_stache.Stache.t
(** Like {!typhoon_stache} but also returns the underlying system and
    protocol handles (used by tests and by custom-protocol setups). *)

val dirnnb : ?reliability:Tt_net.Reliable.policy -> Params.t -> t

val dirnnb_full :
  ?reliability:Tt_net.Reliable.policy -> Params.t -> t * Tt_dirnnb.System.t

val typhoon_em3d :
  ?reliability:Tt_net.Reliable.policy -> Params.t -> t
(** Typhoon with Stache plus the EM3D delayed-update protocol installed
    ("Typhoon/Update" in Figure 4).  Exposes hooks ["em3d.sync:<kind>"] and
    the allocator kind ["em3d:<kind>"] for the value arrays. *)

val typhoon_zoo_full :
  ?reliability:Tt_net.Reliable.policy -> policy:Tt_custom.Proto.pol ->
  Params.t ->
  t * Tt_typhoon.System.t * Tt_stache.Stache.t * Tt_custom.Proto.t
(** Typhoon with Stache plus the protocol zoo installed, every application
    allocation adopted under [policy] (labelled ["typhoon/<policy>"]).
    Allocations are page-aligned; release-consistency flushes run at the
    [Pre_barrier] and [Pre_release] sync points.  {!of_name} builds the
    zoo machines through it. *)

val typhoon_adaptive :
  ?reliability:Tt_net.Reliable.policy -> Params.t -> t
(** Typhoon with the zoo plus per-page adaptive policy switching: pages
    start on the default invalidate protocol and {!Tt_custom.Adaptive}
    reclassifies them around every barrier and every 8th lock release.
    Allocations are page-aligned like the static zoo machines. *)

val typhoon_adaptive_full :
  ?reliability:Tt_net.Reliable.policy -> Params.t ->
  t * Tt_typhoon.System.t * Tt_stache.Stache.t * Tt_custom.Proto.t
  * Tt_custom.Adaptive.t
