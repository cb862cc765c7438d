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
      purges its tracks ({!Tt_stache.Stache.on_node_death} /
      {!Tt_dirnnb.System.on_node_death});
    - {e checkpoint}: this module snapshots shared pages at barriers
      (a [Post_barrier] hook, {!Machine.add_sync}) and answers the repair
      pass's [restore] lookups — a snapshot is handed out only when it
      provably equals the page's current content, so a re-homed page is
      never silently wrong;
    - {e classification}: each run either completes in place and passes
      the application's own verify oracle ({!Masked} when the outage
      stayed under the detection lease, {!Rehomed} when recovery ran), or
      aborts with a diagnosis and is {e rolled back} — re-executed from a
      clean boot — and verified there ({!Rolled_back}); {!Unrecoverable}
      is reserved for a re-execution that itself fails.  Never silence,
      never corruption. *)

type outcome =
  | Masked  (** outage below the detection lease; retransmission hid it *)
  | Rehomed  (** death verdict fired, recovery ran, run completed in place *)
  | Rolled_back of { depth : int; added_cycles : int }
      (** diagnosed abort, then verified re-execution; [depth] counts the
          barrier-checkpoint epochs of lost work, [added_cycles] the
          simulated cycles the aborted attempt burned *)
  | Unrecoverable of string  (** even the re-execution failed *)

val outcome_label : outcome -> string

type rejoin = Never | Quick | Late
(** Crash-window axis: permanent crash-stop; a window below the detection
    lease (expected {!Masked}); a window well past it (expected
    {!Rehomed} or {!Rolled_back}). *)

val rejoin_label : rejoin -> string

val machines : string list
(** Accepted machine names: ["stache"], ["dirnnb"].  (The custom
    ["update"] protocol keeps per-node state outside the recovery entry
    points and is not covered.) *)

type exec_result = {
  label : string;
  cycles : int;
  outcome : outcome;
  detail : string option;
  deaths : int;
  revivals : int;
  scrubbed : int;
  epochs : int;
  cell_stats : Tt_util.Stats.t;
  failed : string option;
}
(** One fully-classified crash run: [cycles] belongs to the run whose
    results stand (the re-execution when rolled back), [cell_stats] to
    the crash run itself, [detail] is the diagnosed abort reason behind a
    rollback, and [failed] is non-[None] only when the cell could not be
    brought to verified results at all. *)

val exec :
  machine:string -> name:string -> size:Catalog.size -> scale:float ->
  nodes:int -> config:Tt_net.Faults.config -> base:Run.result ->
  base_msgs:int -> unit -> exec_result
(** Run one app under [config] (crash schedule and/or message faults)
    with the full recovery stack wired, against the fault-free baseline
    [base] (watchdog budgets and oracle yardstick; [base_msgs] its
    request+response message total).  Also the entry point
    {!Faultsweep}'s crash cells reuse. *)

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

val run :
  ?apps:string list -> ?machine:string -> ?victims:int list ->
  ?crash_fracs:float list -> ?rejoins:rejoin list -> ?seeds:int list ->
  ?size:Catalog.size -> ?scale:float -> ?nodes:int -> ?domains:int ->
  unit -> point list
(** The crash-time × victim × rejoin (× seed) grid over the Fig. 3 apps.
    Each app first takes a fault-free baseline (the oracle and the
    watchdog yardstick), then every cell crashes [victim] at
    [crash_frac × baseline cycles] with the chosen rejoin window and must
    end in verified results or a diagnosed abort.  Defaults: all catalog
    apps, machine ["stache"], victims [[0; 3]], crash_fracs [[0.4]], all
    three rejoin modes, seed [1], small data sets at scale 0.25 on
    8 nodes.  [domains > 1] fans the per-app bundles out over worker
    domains with bit-identical points ({!Tt_sim.Domains.map}). *)

val all_passed : point list -> bool

val render : point list -> string
