(** User-level failure detection: a lease/heartbeat protocol.

    Tempest puts policy in user software; this module is the {e detection}
    policy for crash-stop failures.  Every node broadcasts a heartbeat each
    [period]: unsequenced, unacked and exempt from the fault PRNG, so only
    crash-stop windows can swallow it.  A monitor declares a peer {e dead}
    once it has been silent longer than the {!lease} (and
    {e suspected} past half that), and feeds the verdict back into
    {!Reliable.set_liveness} so retransmission storms toward dead peers
    become prompt {!Reliable.Peer_dead} notifications (or recovery-layer
    callbacks).  A declared-dead peer whose heartbeats resume is flipped
    back to alive — the rejoin path.

    Because beats skip the fault PRNG and the fabric latency is constant,
    every live observer hears a beat at the same cycle, so the
    per-observer suspicion matrices of a real gossip protocol collapse into
    one agreed, deterministic system-wide verdict (documented as a
    modelling simplification in DESIGN.md §6).  A beat is therefore
    simulated as one event, [latency] cycles after it is sent: it counts
    one [faults.crash_dropped] per peer whose endpoint is down at that
    cycle (or per peer, at the send, if the sender is down) and is heard
    if any peer's is up.  Beats never touch the fabric, so they appear in
    none of its [msgs.*]/[words.*] counters.

    The heartbeat and monitor loops re-arm themselves forever, which would
    keep the event queue from draining: call {!stop} when the application
    finishes (the recovery harness does this from the last-finishing SPMD
    thread). *)

type status = Alive | Suspected | Dead

type t

val lease : Fabric.t -> int
(** The detection lease over [fabric], in cycles: four heartbeat periods
    of 32 fabric latencies each.  A peer silent longer than this is
    declared dead at the next monitor tick. *)

val create : Tt_sim.Engine.t -> Reliable.t -> t
(** Starts the per-node heartbeat loops (staggered one cycle apart) and
    the monitor loop immediately, with a period of 32 fabric latencies and
    the {!lease} of four periods.  Also installs itself as the transport's
    verdict ({!Reliable.set_liveness}).
    @raise Invalid_argument under a [Perfect] transport, or over a fabric
    with a link-bandwidth model ([words_per_cycle]: port contention would
    give each observer its own arrival cycle). *)

val set_on_dead : t -> (int -> unit) -> unit
(** Hook fired once per death verdict, with the dead node's rank. *)

val set_on_alive : t -> (int -> unit) -> unit
(** Hook fired when a declared-dead node's heartbeats resume. *)

val stop : t -> unit
(** Stop both loops (the already-scheduled next events fire once and
    expire).  Verdict state stays queryable. *)

val status : t -> int -> status

val is_dead : t -> int -> bool

val lowest_live : t -> int
(** Deterministic election: the lowest rank not declared dead.
    @raise Invalid_argument if every node is dead. *)

val period : t -> int

val deaths : t -> int
(** Death verdicts fired so far. *)

val revivals : t -> int
(** Rejoin verdicts fired so far. *)

val summary : t -> string
(** One-line census for watchdog diagnostics, e.g.
    ["7/8 alive, dead [3]"]. *)

val stats : t -> Tt_util.Stats.t
(** Counters: [liveness.heartbeats] (one per beat and peer),
    [liveness.deaths], [liveness.revivals]. *)
