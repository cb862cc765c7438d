(** The EM3D delayed-update protocol (§4).

    A custom coherence protocol, written against the same Tempest endpoint
    as Stache, that exploits EM3D's sharing pattern: graph-node values are
    produced by exactly one owner per step (owners-compute) and read by a
    static set of consumers.  Instead of invalidating consumer copies on
    every write and letting consumers re-fetch them (4+ messages per remote
    value per iteration), the protocol:

    - introduces two new page types — custom home and custom stache pages —
      and allocates graph values on them ({!alloc});
    - lets consumer copies go stale *within* a step: home blocks stay
      ReadWrite at the home, so owner writes never fault or invalidate;
    - keeps, at each home, a list of outstanding copies per block (reusing
      Stache's sharer representation);
    - at the end of a step, the owner's flush handler walks that list and
      sends one update message per (block, consumer) — the minimum one
      message per remote datum;
    - needs no acknowledgments: every consumer knows how many blocks of
      each array it has stached and simply counts arriving updates (a fuzzy
      barrier).  Updates that arrive early — for a step the consumer has not
      finished reading — are buffered and applied when the consumer enters
      its wait, which is what keeps delayed consistency from becoming
      incorrectness.

    Applications use it through two machine hooks:
    ["em3d.step:<kind>"] — flush my updates for array [kind] and wait for
    all updates of [kind] I am owed this step. *)

type t

val mode_custom_home : int

val install : Tt_typhoon.System.t -> Tt_stache.Stache.t -> t
(** Must be installed after Stache: it wraps Stache's page-fault handler so
    non-custom pages keep their transparent behaviour. *)

val alloc :
  t -> th:Tt_sim.Thread.t -> node:int -> kind:string -> ?home:int ->
  bytes:int -> unit -> int
(** Allocate a chunk of a named value array on custom home pages at [home].
    Chunks of the same [kind] share one update/expectation domain. *)

val flush_and_wait : t -> th:Tt_sim.Thread.t -> node:int -> kind:string -> unit
(** End-of-step synchronization for one array: post the flush of this node's
    outstanding copies to the NP, then block the CPU until all expected
    updates of [kind] for the current step have been applied. *)

val stats : t -> Tt_util.Stats.t
(** [updates_sent], [updates_buffered], [fetches]. *)
