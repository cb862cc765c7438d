(** Crash-stop node failures: user-level detection, re-homing, and
    checkpointed recovery, end to end.

    Tempest's thesis — policy in user software — extends to availability:
    nothing below the user level detects or repairs a node failure.  This
    module is the harness that closes the loop over the pieces the lower
    layers provide:

    - {e injection}: a seeded {!Tt_net.Faults.crash} schedule silences the
      victim's fabric endpoint (sends and receives) for its crash window,
      drawn from private PRNG streams so the pinned main-stream fault
      patterns are untouched;
    - {e detection}: the {!Tt_net.Liveness} lease/heartbeat protocol turns
      the silence into a deterministic death verdict, and back into a
      revival verdict if heartbeats resume;
    - {e repair}: at the verdict the transport parks and scrubs channels
      ({!Tt_net.Reliable.on_peer_death} / [scrub_unacked]) and the
      protocol re-homes the victim's pages onto the lowest live rank and
      purges its tracks, through the machine's own entry points
      ({!Machine.t.recovery});
    - {e checkpoint}: this module snapshots shared pages at barriers
      (a [Post_barrier] hook, {!Machine.add_sync}) and answers the repair
      pass's [restore] lookups — a snapshot is handed out only when it
      provably equals the page's current content, so a re-homed page is
      never silently wrong;
    - {e classification}: each run either completes in place and passes
      the application's own verify oracle ({!Masked} when the outage
      stayed under the detection lease, {!Rehomed} when recovery ran), or
      aborts with a diagnosis and is {e rolled back} — re-executed from a
      clean boot, which is the deterministic fault-free run the verified
      baseline already took ({!Rolled_back}).  Never silence, never
      corruption. *)

type outcome =
  | Masked  (** outage below the detection lease; retransmission hid it *)
  | Rehomed  (** death verdict fired, recovery ran, run completed in place *)
  | Rolled_back of { depth : int; added_cycles : int }
      (** diagnosed abort, then re-execution from a clean boot (the
          verified baseline's run); [depth] counts the barrier-checkpoint
          epochs of lost work, [added_cycles] the simulated cycles the
          aborted attempt burned *)
  | Unrecoverable of string
      (** no cell produces it since a rollback reuses the verified
          baseline; kept because the whole-run benchmark matches on it *)

val outcome_label : outcome -> string

type rejoin = Never | Quick | Late
(** Crash-window axis: permanent crash-stop; a window below the detection
    lease (expected {!Masked}); a window well past it (expected
    {!Rehomed} or {!Rolled_back}). *)

val rejoin_label : rejoin -> string

val require : string -> unit
(** [require machine] checks, before any run, that the named machine
    carries crash-recovery entry points ({!Machine.t.recovery}).
    @raise Invalid_argument naming it and the recoverable machines
    ({!Machine.recoverable}) otherwise. *)

val diagnose : exn -> string option
(** The diagnosis of an aborted run: the exception's message behind its
    kind's label ([Watchdog: ], [Stuck: ], [Failure: ], [Unrecoverable: ],
    [Link_failed: ], [Peer_dead: ], [Overload: ], [Invalid_argument: ]),
    or [None] for an exception no harness should capture. *)

type baseline = {
  result : Run.result;  (** the fault-free run: the oracle's yardstick *)
  msgs : int;  (** its request+response message total *)
  lease : int;  (** the liveness detection lease, in cycles *)
}

val baseline :
  machine:string -> name:string -> size:Catalog.size -> scale:float ->
  nodes:int -> baseline
(** One app's fault-free, verified run on the named machine
    ({!Run.verified}).  Deterministic, so it doubles as a rolled-back
    cell's clean re-execution. *)

val watchdog : baseline -> Watchdog.t
(** The budgets every faulty run of the app gets: 100x the baseline's
    cycles and 10x its messages in retransmits, 10x its cycles without
    delivery, each plus a fixed floor. *)

type point = {
  app : string;
  machine_label : string;
  victim : int;
  crash_at : int;
  rejoin : rejoin;
  seed : int;
  base_cycles : int;
  cycles : int;
  deaths : int;
  revivals : int;
  scrubbed : int;
  epochs : int;
  pages_rehomed : int;
  blocks_restored : int;
  outcome : outcome;
  detail : string option;
  failed : string option;
}
(** One classified crash cell: [cycles] belongs to the run whose results
    stand (the baseline's when rolled back), and [detail] is the
    diagnosed abort reason behind a rollback.  [failed] is always [None]
    now that a rollback reuses the verified baseline; it stays because
    the whole-run benchmark reads it. *)

val cell :
  machine:string -> name:string -> size:Catalog.size -> scale:float ->
  nodes:int -> base:baseline -> victim:int -> frac:float -> rejoin:rejoin ->
  seed:int ->
  faults:(seed:int -> Tt_net.Faults.crash list -> Tt_net.Faults.config) ->
  point * Tt_util.Stats.t
(** Crash [victim] at [frac] of [base]'s cycles with the [rejoin] window
    ([Quick]: half the detection lease; [Late]: four leases), run one app
    under [faults ~seed crashes] (the crash schedule plus any message
    faults) with the full recovery stack wired, and classify the outcome.
    Also returns the crash run's merged stats.  The cell both {!run} and
    {!Faultsweep}'s crash axis run. *)

val run :
  ?apps:string list -> ?machine:string -> ?victims:int list ->
  ?crash_fracs:float list -> ?rejoins:rejoin list -> ?seeds:int list ->
  ?size:Catalog.size -> ?scale:float -> ?nodes:int -> ?domains:int ->
  unit -> point list
(** The crash-time × victim × rejoin (× seed) grid over the Fig. 3 apps.
    Each app first takes a fault-free baseline (the oracle and the
    watchdog yardstick), then every {!cell} crashes [victim] at
    [crash_frac × baseline cycles] with the chosen rejoin window and must
    end in verified results or a diagnosed abort.  Defaults: all catalog
    apps, machine ["stache"], victims [[0; 3]], crash_fracs [[0.4]], all
    three rejoin modes, seed [1], small data sets at scale 0.25 on
    8 nodes.  [domains > 1] fans the per-app bundles out over worker
    domains with bit-identical points ({!Tt_sim.Domains.map}).
    @raise Invalid_argument before any run for a machine without
    recovery entry points ({!require}), a victim outside the machine, or
    a crash fraction outside (0, 1) (the crash would miss the run). *)

val all_passed : point list -> bool

val render : point list -> string
