(** The protocol zoo: a family of reusable custom coherence policies over
    the Tempest interface, factored so each protocol is a policy module on
    the Stache home engine rather than a fork of it.

    Pages adopted by the zoo are retyped in place to
    {!Tt_stache.Stache.mode_proto_home} at their home; remote copies stay
    ordinary stached pages, so page faults, fetches and replacement all keep
    their transparent behaviour.  The policies ({!pol}) are:

    - [Migratory] — exclusive ownership follows the accessor: a read miss on
      a remotely-owned block is served as an ownership handoff
      (invalidate-on-handoff), halving the recall traffic of
      write-after-write migration patterns.  Sequentially consistent.
    - [Prodcons] — producer-consumer channel: invalidation rounds triggered
      by home (producer) stores record the invalidated readers; at the next
      release point the home pushes committed copies back to that reader
      set, contiguous runs as one bulk transfer.  Consumers then read
      without a single fetch.  Sequentially consistent (only clean data is
      pushed, and pushed blocks are re-registered as ordinary sharers).
    - [Widerep] — read-mostly wide replication: a home store on a Shared
      block is granted in place (no invalidations); a harvest message
      re-reads the block after the store commits and eagerly pushes the new
      value to all sharers, demoting the home copy so the next store
      harvests again.
    - [Delayed] — delayed write-update: like [Widerep] but with no eager
      harvest; dirty blocks are pushed once per release point (batched).

    [Widerep]/[Delayed] relax consistency between synchronization points:
    stale read-only copies may be observed until the writer's next release.
    Data-race-free programs stay correct because {!flush_release} — wired to
    the harness's pre-barrier and pre-release hooks — pushes all dirty data
    and awaits acknowledgments before the releasing processor can pass the
    synchronization point.  Racy programs may observe staleness, which the
    torture oracle diagnoses (never silent corruption: updates carry
    committed data and every transition stays within the MSI state space).

    {!Adaptive} layers per-page runtime policy selection on top. *)

type t

type pol = Stachelike | Migratory | Prodcons | Widerep | Delayed

val pol_of_name : string -> pol
(** @raise Invalid_argument on unknown names, listing the valid ones. *)

val name_of_pol : pol -> string

(** Observation stream consumed by the adaptive layer: one event per
    home-side protocol decision point. *)
type event =
  | Ev_get of [ `Ro | `Rw | `Up ] * int  (** remote fetch: kind, requester *)
  | Ev_recall  (** exclusive copy recalled *)
  | Ev_invals of int * bool  (** invalidation round: #targets, home-store? *)
  | Ev_update_grant  (** home store served update-style *)

val install : Tt_typhoon.System.t -> Tt_stache.Stache.t -> t
(** Register the zoo's message handlers and install its policy hooks into
    Stache's policy slot.  Pages keep transparent behaviour until adopted
    ({!adopt} / {!set_page_pol}). *)

val adopt :
  t -> th:Tt_sim.Thread.t -> node:int -> vaddr:int -> bytes:int -> pol -> unit
(** Place every page of a fresh allocation under [pol] (retyping each at its
    home).  Zoo machines route all application allocations through this. *)

val set_page_pol : t -> vpage:int -> pol -> unit
(** Retype one page in place at its home and record its policy
    ([Stachelike] reverts it to a transparent page).  Flushes the home's
    translation MRU and TLB entry.  The page must be quiescent
    ({!page_quiescent}); the caller charges simulated switch cost. *)

val pol_of_page : t -> vpage:int -> pol

val iter_pages : t -> (vpage:int -> pol -> unit) -> unit
(** Iterate the pages currently holding a non-default policy (order
    unspecified — sort before depending on it). *)

val page_quiescent : t -> vpage:int -> bool
(** Safe-switch probe: the page is mapped at its home and no block is
    mid-transaction, has queued waiters, or carries un-flushed zoo state. *)

val flush_release : t -> th:Tt_sim.Thread.t -> node:int -> unit
(** Release-point flush for [node]: post the flush walk to its NP (dirty
    update pushes, prodcons reader pushes) and block the CPU until every
    update sent from this node has been acknowledged.  Free when the node
    has no un-flushed state.  Wire to the machine's [Pre_barrier] and
    [Pre_release] sync points ({!Tt_harness.Machine.add_sync}). *)

val set_observer : t -> (vaddr:int -> event -> unit) option -> unit
(** Install the adaptive layer's observation callback (host-side, free). *)

val stats : t -> Tt_util.Stats.t
(** [update_grants], [updates_sent], [updates_applied], [updates_stale],
    [migratory_handoffs], [pushes_sent], [pushes_applied], [pushes_stale],
    [bulk_pushes], [harvests], [flushes]. *)

(** {2 Shared custom-protocol plumbing}

    Extracted from the EM3D protocol so every custom protocol reuses the
    same page registry, page-fault wrapper and allocator. *)

module Pages : sig
  type t

  val create : Tt_typhoon.System.t -> Tt_stache.Stache.t -> t

  val registered : t -> vpage:int -> bool

  val id_of : t -> what:string -> int -> int
  (** The id a page was registered under.
      @raise Invalid_argument (prefixed [what]) off custom pages. *)

  val alloc :
    t -> th:Tt_sim.Thread.t -> node:int -> id:int -> home_mode:int ->
    ?home:int -> bytes:int -> unit -> int
  (** Page-aligned {!Tt_stache.Stache.alloc} plus per-page registration
      under [id] and home-side retyping to [home_mode]. *)

  val wrap_page_fault : t -> remote_mode:int -> unit
  (** Wrap Stache's installed page-fault handler: registered pages map as
      [remote_mode] custom pages with Invalid tags; everything else keeps
      the transparent behaviour.
      @raise Invalid_argument if Stache is not installed. *)
end

val np_wake :
  Tt_typhoon.System.t -> node:int -> Tt_sim.Thread.t -> (unit -> unit) ->
  unit -> unit
(** Wake a blocked CPU thread from an NP handler, first syncing the CPU
    clock to the NP's (the standard custom-protocol wait pattern). *)
