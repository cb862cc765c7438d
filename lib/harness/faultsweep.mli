(** Fault-tolerance sweep: the Fig. 3 applications on an unreliable fabric.

    For each app the sweep first takes a fault-free baseline (whose verify
    pass establishes the oracle results), then re-runs under
    [Reliable.Flaky] across a drop-rate × seed grid.  Each faulty run must
    finish under a {!Watchdog} budget derived from the baseline, pass the
    machine's global coherence audit, and reproduce the application's
    results exactly (the app's own verify body checks final data against
    its sequential oracle).  Failures are captured per point rather than
    raised, so one bad cell doesn't abort the sweep. *)

type outcome = Passed | Failed of string

type point = {
  app : string;
  machine_label : string;
  drop : float;  (** per-message drop probability, both vnets *)
  crash : Recovery.rejoin option;
      (** [Some _] marks a crash cell: victim 0 crash-stops at 40% of the
          baseline runtime with the given rejoin window, on top of the
          cell's message faults *)
  recovery : Recovery.outcome option;
      (** how a crash cell's run was brought to verified results *)
  seed : int;
  cycles : int;  (** 0 when the run failed *)
  base_cycles : int;
  data_sent : int;  (** sequenced sends, incl. the baseline's traffic *)
  retransmits : int;
  acks : int;  (** standalone (non-piggybacked) acks *)
  dropped : int;
  duplicated : int;
  reordered : int;
  spilled : int;  (** handler sends redirected to the §5.1 overflow buffer *)
  blocked : int;  (** CPU sends that parked on exhausted credits *)
  outcome : outcome;
}

val config_of :
  ?request_drop:float -> ?response_drop:float -> ?burst:Tt_net.Faults.burst ->
  ?crashes:Tt_net.Faults.crash list -> drop:float -> seed:int -> unit ->
  Tt_net.Faults.config
(** The sweep's fault taxonomy for one grid cell: drop at the given rate,
    duplicate at a quarter of it, reorder at half of it, on both vnets.
    [request_drop]/[response_drop] override the drop rate for that vnet
    only (the per-vnet dup/reorder rates follow the vnet's effective drop
    rate), giving asymmetric cells such as a lossy request network under a
    clean response network.  [burst] turns the rates into Gilbert–Elliott
    bursty loss (see {!Tt_net.Faults.bursty}). *)

val run :
  ?apps:string list -> ?machine:string -> ?drops:float list ->
  ?seeds:int list -> ?crashes:Recovery.rejoin option list ->
  ?request_drop:float -> ?response_drop:float ->
  ?burst:Tt_net.Faults.burst -> ?credits:int -> ?spill:int ->
  ?size:Catalog.size -> ?scale:float -> ?nodes:int -> ?domains:int ->
  unit -> point list
(** [machine] is any {!Machine.names} entry.
    Defaults: all catalog apps, machine ["stache"], drops [[0.01; 0.05]],
    seeds [[1; 2; 3]], no crashes, small data sets at scale 0.25 on
    8 nodes.  [request_drop]/[response_drop] apply the same per-vnet
    override to every grid cell (the [drops] axis still sets the other
    vnet's rate).  [crashes] adds a crash axis to the grid
    (crashes × drops × seeds): [None] is the ordinary message-faults-only
    cell, [Some rejoin] is a {!Recovery.cell} that crash-stops victim 0
    at 40% of the baseline runtime and reports how it was brought to
    verified results (masked / rehomed / rolled-back) in
    {!point.recovery}.  Crash cells ignore the [credits]/[spill]
    squeezes; asking for them on a machine without recovery entry points
    raises [Invalid_argument] before any run ({!Recovery.require}).
    A failed cell's message carries {!Recovery.diagnose}'s label.
    [credits]/[spill] squeeze the flow-control capacities for the faulty
    runs (the baseline always uses the ample defaults), so cells exercise
    real backpressure: spilled handler sends, blocked CPU senders, and —
    when the spill capacity is small enough — a graceful [Overload] abort
    instead of unbounded buffering.  [domains > 1] fans the per-app
    (baseline + grid) bundles out over worker domains with bit-identical
    points ({!Tt_sim.Domains.map}). *)

val all_passed : point list -> bool

val render : point list -> string
