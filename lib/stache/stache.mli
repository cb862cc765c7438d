(** Stache: user-level transparent shared memory over Tempest (§3).

    Stache turns part of each node's local memory into a large,
    fully-associative cache for remote data: shared virtual pages are
    *homed* on one node and faulted in page-at-a-time on other nodes, but
    coherence is maintained block-at-a-time with an invalidation protocol
    whose directory is plain software (see {!Dir}).

    Everything here is ordinary user-level protocol code written against the
    {!Tempest} endpoint — a page-fault handler, block-access-fault handlers
    for home and stached pages, and a set of active-message handlers.  The
    machine model never peeks inside.

    Protocol summary:
    - first access to a remote page → page fault → map a local stache page
      with all blocks Invalid (FIFO replacement when the stache is full,
      flushing modified blocks home);
    - access to an Invalid block → block fault → [get] request to home;
    - home serves requests from the per-block directory, recalling or
      invalidating conflicting copies first; the handler for the final
      invalidation acknowledgment sends the data;
    - home-node faults bypass messages and operate on the directory
      directly. *)

type t

val mode_home : int
(** Page mode of Stache home pages. *)

val mode_remote : int
(** Page mode of stached (remote copy) pages. *)

val mode_proto_home : int
(** Page mode of home pages retyped by a policy layer (protocol zoo): block
    faults dispatch into the same home engine, but the installed
    {!policy_hooks} modulate service and the invariant auditor leaves the
    page to its policy's rules.  Remote copies of such pages stay ordinary
    [mode_remote] pages. *)

(** {2 Policy hooks (protocol zoo)}

    A policy layer ({!Tt_custom.Proto}, {!Tt_custom.Adaptive}) customizes
    home-side service per page without forking the directory engine.  All
    hooks run at the block's home inside NP handlers; simulated cost is
    charged by the hook implementation, so machines without a policy are
    bit-identical to before the slot existed. *)

type policy_hooks = {
  ph_grant_kind :
    vaddr:int ->
    requester:int ->
    state:Dir.bstate ->
    [ `Ro | `Rw | `Up ] ->
    [ `Ro | `Rw | `Up ];
      (** May strengthen a remote request before service (e.g. migratory
          turns [`Ro] on a remotely-owned block into [`Rw] so ownership
          follows the accessor; update policies turn [`Up] on a home-dirty
          block into [`Rw] so fresh data is sent).  Re-applied when queued
          waiters are drained. *)
  ph_home_store :
    Tempest.t -> vaddr:int -> Dir.block_dir -> Tempest.resumption -> bool;
      (** Home store fault on a Shared block.  Returning [true] means the
          policy granted write permission in place (keeping the sharer set,
          recording the block dirty, resuming the CPU) and the invalidation
          round is skipped; [false] falls through to normal service. *)
  ph_note_get : vaddr:int -> requester:int -> kind:[ `Ro | `Rw | `Up ] -> unit;
  ph_note_invals : vaddr:int -> targets:int list -> home_store:bool -> unit;
  ph_note_recall : vaddr:int -> unit;
}

val set_policy : t -> policy_hooks option -> unit
(** Install (or clear) the policy hook set.  One slot machine-wide; per-page
    behaviour is the policy layer's business. *)

val install : Tt_typhoon.System.t -> t
(** Register all Stache handlers on the system.  Two fields of the
    system's {!Params.t} shape the protocol: [stache_max_pages] bounds the
    per-node stache size in pages (FIFO page replacement kicks in beyond
    it; [None] lets Stache use all of local memory), and [sabotage] seeds
    the coherence bug the torture harness must catch: invalidation
    handlers acknowledge without invalidating, leaving stale read-only
    copies behind (counted under [sabotaged_invals] in {!stats}). *)

val system : t -> Tt_typhoon.System.t

val alloc :
  t -> th:Tt_sim.Thread.t -> node:int -> ?home:int -> ?align:int ->
  bytes:int -> unit -> int
(** Allocate shared memory from the shared heap segment through the
    machine's {!Tt_mem.Homes} map; returns the virtual address.  Pages are
    homed round-robin unless [home] pins them (the paper: "Stache also
    allows pages to be allocated on specific nodes").  Runs as CPU-side
    library code on [node]'s thread: 10 cycles, plus 50 per fresh page to
    create its home page and directory. *)

val home_of : t -> vaddr:int -> int
(** Home node of an allocated address: the one page-home map
    ({!Tt_mem.Homes}) that every node consults, so no node holds a stale
    home and no request is ever forwarded.  The remote block-fault path
    charges an NP cache touch for the lookup.
    @raise Invalid_argument for an address outside the allocated heap. *)

val prefetch :
  t -> th:Tt_sim.Thread.t -> node:int -> vaddr:int -> [ `Ro | `Rw ] -> unit
(** Nonbinding prefetch: if [vaddr]'s block is Invalid on an already-stached
    page and no request is outstanding, tag it Busy and issue the fetch
    without blocking — the Busy state's stated purpose (§5.4).  A real
    access that arrives before the data simply joins the outstanding
    request.  No-op in every other situation (unmapped page, block already
    valid, request already in flight). *)

val stats : t -> Tt_util.Stats.t
(** Protocol event counters: [get_ro], [get_rw], [upgrade], [inval],
    [recall], [writeback], [page_replacements], [home_faults]; recovery
    adds [recovery.pages_rehomed], [recovery.blocks_restored],
    [recovery.txns_repaired], [recovery.reissued],
    [recovery.stranded_resumes]. *)

(** {2 Crash-stop recovery}

    User-level recovery from crash-stop node failures
    ({!Tt_net.Faults.crash}): when the liveness protocol
    ({!Tt_net.Liveness}) confirms a death, the recovery layer
    ({!Tt_harness.Recovery}) calls {!on_node_death} to re-home the
    victim's pages and repair surviving directories, and {!on_node_rejoin}
    if the victim later resumes heartbeating.  Both run synchronously at
    the verdict — the recovery daemon is modeled off the critical path —
    but every protocol-visible action (re-issued requests, grants,
    resumption fires) is scheduled as charged NP work. *)

val set_is_dead : t -> (int -> bool) -> unit
(** Install the liveness verdict consulted by the repair passes (which
    nodes count as live when electing copy sources and purging sharers).
    Default: everyone is alive. *)

val noop_handler : t -> int
(** Handler id of the registered recovery no-op sink ([stache.noop]) —
    the rewrite target for {!Tt_net.Reliable.scrub_unacked}.  It charges
    one NP instruction and ignores its payload.
    @raise Invalid_argument before {!install}. *)

val heap : t -> Tt_mem.Homes.t
(** The machine's shared heap and page-home map. *)

val snapshot_page : t -> vpage:int -> Bytes.t option
(** Checkpoint assist: a copy of [vpage]'s authoritative content, read
    from its home, or [None] when home memory is stale (some block is
    remotely owned or mid-transaction) or the page is unallocated.  The
    checkpoint layer ({!Tt_harness.Recovery}) calls this at barriers;
    zero simulated cost — the copy is modeled as overlapped with the
    barrier. *)

val on_node_death :
  t -> dead:int -> new_home:int -> restore:(vpage:int -> Bytes.t option) ->
  unit
(** Repair the protocol after [dead]'s confirmed crash.  Pages homed on
    the victim are re-homed to [new_home] (deterministically the lowest
    live rank, chosen by the caller): the new directory is reconstructed
    from the survivors' block tags, block content comes from the new
    home's own stached copy, a surviving read-only holder, or — when the
    victim held the only copy — [restore ~vpage], the caller's checkpoint
    lookup, which must return [None] unless the page is provably clean
    since its last snapshot.  Surviving directories are purged of the
    victim (sharer entries, owed acks, recalled-owner and dead-requester
    transactions), and survivors' requests lost with the old home are
    re-issued by firing their retry resumptions.
    @raise Tt_net.Faults.Unrecoverable when a lost dirty copy has no
    clean checkpoint — the caller must roll back. *)

val on_node_rejoin : t -> node:int -> unit
(** The victim resumed heartbeating: drop its stale crash-era
    bookkeeping (outstanding-request table, Busy tags) and re-fire its
    suspended CPUs; every retry re-faults cleanly against the current,
    possibly re-homed, mapping.  Call after the transport scrub and
    replay ({!Tt_net.Reliable.on_peer_alive}). *)

val check_invariants : t -> (unit, string) result
(** Directory/tag consistency at a quiescent point: no pending
    transactions; Idle ⇒ home tag ReadWrite and no remote copy;
    Shared ⇒ home tag ReadOnly, every remote copy ReadOnly and registered;
    Remote_excl o ⇒ home tag Invalid and node o's copy ReadWrite. *)
