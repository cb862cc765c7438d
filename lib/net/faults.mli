(** Deterministic fault injection for the interconnect.

    Wraps {!Fabric.send} with a seeded, reproducible fault model: messages
    may be dropped, duplicated, or delayed past later traffic
    (reorder/jitter), with independent probabilities per virtual network.
    Decisions come from a private splitmix PRNG ({!Tt_util.Prng}), so the
    same seed and config produce a bit-identical fault pattern — and, the
    simulation being deterministic, bit-identical runs.

    Typhoon itself assumes a reliable non-corrupting network (§5.1); this
    layer exists to exercise the user-level {!Reliable} transport and the
    coherence/progress oracles above it.

    {2 PRNG draw order (pinned)}

    Per {!send}, draws happen in exactly this order, each draw conditional
    on the preceding ones:
    + drop chance (only if the vnet's drop rate is positive);
    + a {e dropped} message draws nothing further — its fault pattern costs
      exactly one draw;
    + reorder chance (only if the reorder rate is positive);
    + reorder jitter, [1 + uniform max_jitter], iff the reorder chance hit;
    + dup chance (only if the dup rate is positive);
    + dup jitter, [1 + uniform max_jitter], iff the dup chance hit.

    A message that is both reordered and duplicated therefore draws {e two}
    jitters from the same stream, reorder's first; the duplicate's delay is
    independent of (and may be smaller than) the original's.  This order is
    part of the module's seed-stability contract: changing it silently
    rewrites every recorded fault pattern, so it is pinned by a regression
    test (the exact dropped/duplicated/reordered counter triple for a known
    traffic sequence).

    Bursty-loss mode ({!bursty}) does not touch this contract: each
    (src,dst) link's Gilbert–Elliott state transition draws from a {e
    private} per-link stream, never from the main stream, and the rules
    above then apply to the state's {e effective} rates (the configured
    rates scaled by [good_scale]/[bad_scale], clamped to 1).  With both
    scales at 1.0 the main stream is consumed draw-for-draw identically to
    burst mode off. *)

type rates = { drop : float; dup : float; reorder : float }
(** Independent per-message probabilities in [0, 1]. *)

val no_faults : rates

type burst = {
  p_enter : float;  (** good→bad transition probability, per send on a link *)
  p_exit : float;   (** bad→good transition probability *)
  good_scale : float;  (** fault-rate multiplier in the good state *)
  bad_scale : float;   (** fault-rate multiplier in the bad state *)
}
(** Seeded Gilbert–Elliott bursty loss: each (src,dst) link is a two-state
    Markov chain advanced once per send over that link, and the state
    scales the vnet's configured rates (clamped to probability 1).  The
    default good state is clean ([good_scale = 0]); the bad state
    concentrates the configured rates into bursts ([bad_scale = 10]). *)

val bursty :
  ?p_enter:float -> ?p_exit:float -> ?good_scale:float -> ?bad_scale:float ->
  unit -> burst
(** Defaults: p_enter 0.05, p_exit 0.25 (mean burst length 4 sends),
    good_scale 0, bad_scale 10.  @raise Invalid_argument on probabilities
    outside [0,1] or negative scales. *)

exception Unrecoverable of string
(** Raised by recovery layers (Stache/DirNNB re-homing) when a crash lost
    the only copy of modified data and no valid checkpoint covers it: the
    diagnosed, deterministic abort that the recovery harness converts into
    a rollback (re-execution) or a final [Unrecoverable] verdict — never a
    silent wrong answer.  Declared here because the crash-stop failure
    model lives in this module and every recovery layer depends on it. *)

type crash = {
  victim : int;      (** node that crash-stops *)
  at : int;          (** nominal crash cycle *)
  jitter : int;      (** max extra delay, drawn from a private per-victim
                         stream (never the main stream) *)
  rejoin : int option;  (** [Some c]: the node comes back at cycle [c];
                            [None]: crash-stop forever *)
}
(** A seeded crash-stop schedule entry: from its (possibly jittered) crash
    cycle until its rejoin cycle (or forever), the victim's fabric endpoint
    silently drops every send and receive.  The simulator state (memory,
    fibers) is untouched — detection and recovery are the user level's
    problem, exactly as the paper's philosophy demands. *)

val crash : ?jitter:int -> ?rejoin:int -> victim:int -> at:int -> unit -> crash
(** @raise Invalid_argument on a negative crash time or jitter, or a rejoin
    cycle not after the crash cycle. *)

type config = {
  seed : int;
  request : rates;   (** applied to {!Message.vnet} [Request] traffic *)
  response : rates;  (** applied to [Response] traffic *)
  max_jitter : int;  (** max extra delay (cycles) for reordered/dup copies *)
  burst : burst option;  (** [Some _] enables bursty-loss mode *)
  crashes : crash list;  (** crash-stop schedule (empty = no node dies) *)
}

val uniform :
  ?seed:int -> ?drop:float -> ?dup:float -> ?reorder:float ->
  ?max_jitter:int -> ?burst:burst -> ?crashes:crash list -> unit -> config
(** Same rates on both virtual networks (defaults: all 0, seed 0x7700,
    max_jitter 40, no burst, no crashes). *)

val per_vnet :
  ?seed:int -> ?max_jitter:int -> ?burst:burst -> ?crashes:crash list ->
  request:rates -> response:rates -> unit -> config
(** Distinct rates per virtual network — e.g. a lossy request net under a
    clean response net, the asymmetry the [tt faults]
    [--request-drop]/[--response-drop] flags expose. *)

val set_recovery : bool -> unit
(** Kill switch (also [TT_RECOVERY=0] in the environment): when off,
    {!create} ignores the config's crash schedule entirely, so every
    pinned row is bit-identical to crash support never having existed.
    Crash injection consumes no main-stream PRNG draws either way; the
    switch exists so the claim is enforceable by an A/B gate
    (scripts/check_all.sh) rather than argued. *)

val recovery_enabled : unit -> bool

type decision = { dropped : bool; reorder_jitter : int; dup_jitter : int }
(** The complete fault decision for one {!send}: [dropped] wins over the
    rest; [reorder_jitter]/[dup_jitter] of [0] mean no reorder / no dup
    (injected jitters are always ≥ 1). *)

val deliver : decision
(** The neutral decision: deliver untouched, no duplicate. *)

type t

val create : config -> Fabric.t -> t

val send : t -> at:int -> Message.t -> unit
(** Like {!Fabric.send}, but the message may be dropped, delivered twice, or
    delayed by up to [max_jitter] extra cycles (which lets later traffic on
    the same pair overtake it).  A send whose {e source} is inside a
    crash-stop window is dropped silently before the fault model runs — no
    PRNG draw, no tap site — counted as [faults.crash_dropped].  (A down
    {e destination} is handled at delivery time by {!Reliable}.) *)

val send_oob : t -> at:int -> Message.t -> unit
(** Out-of-band send for the liveness protocol: bypasses the fault model's
    PRNG and rates entirely (no drop/dup/reorder draws — lost heartbeats
    are modelled by the lease budget, not per-message faults) but still
    drops sends from a crashed source.  Goes straight to {!Fabric.send}. *)

val is_down : t -> node:int -> at:int -> bool
(** Whether [node] is inside a crash-stop window at cycle [at].  Pure:
    windows are resolved once at {!create} (per-victim jitter drawn from
    private streams), so this never consumes randomness. *)

val crash_window : t -> node:int -> (int * int option) option
(** The resolved window for [node]: [Some (down, rejoin)] where [rejoin]
    is [None] for a permanent crash-stop; [None] if the node never
    crashes (including when recovery is switched off). *)

val crash_drop : t -> Message.t -> unit
(** Swallow a message on behalf of a crashed endpoint: count it under
    [faults.crash_dropped] and release the wire's reference.  Used by
    {!Reliable} for deliveries whose destination is down. *)

val set_tap : t -> (site:int -> decision -> decision) option -> unit
(** Install (or remove) a decision tap.  When set, every {!send} first
    draws its natural decision from the PRNG exactly as documented above,
    then passes it to the tap along with the send's {e site} index (a
    counter of sends through this injector); whatever the tap returns is
    what is applied.  The PRNG stream is consumed identically with or
    without a tap, so recording, masking (forcing {!deliver} at chosen
    sites), and journal-driven replay of fault decisions never shift later
    draws.  Counters reflect {e applied} decisions. *)

val sites : t -> int
(** Number of sends decided so far (the next send's site index). *)

val stats : t -> Tt_util.Stats.t
(** Counters: [faults.dropped], [faults.duplicated], [faults.reordered],
    [faults.crash_dropped] (sends or deliveries swallowed by a crash-stop
    window), and in burst mode [faults.burst_bad_sends] (sends decided in
    a link's bad state). *)

val dropped : t -> int
