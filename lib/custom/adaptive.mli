(** Per-page adaptive policy switching over the protocol zoo.

    Watches the zoo's observation stream ({!Proto.event}) in per-page
    counters and, at decision points (before and after every barrier,
    plus every 8th lock release per node), retypes pages whose traffic
    pattern says the default invalidate protocol is the wrong one:
    write-after-write migration switches to {!Proto.pol.Migratory},
    home-writer / remote-readers or read-mostly traffic switches to
    {!Proto.pol.Widerep}.  Pages that later show contrary evidence
    (remote writes) revert to {!Proto.pol.Stachelike}.

    Counters accumulate until a decision point yields enough evidence to
    classify — quiet stretches neither advance nor reset the hysteresis
    streak, so phase-alternating apps (write burst / read burst per
    barrier) don't flip-flop.  Switching is hysteretic (two consecutive
    consistent classifications; promotion to [Widerep] needs one),
    happens only at quiesce points ({!Proto.page_quiescent}), and
    charges simulated remap + translation shootdown cost.

    Correctness contract: [Stachelike] and [Migratory] are sequentially
    consistent under any access pattern; [Widerep] is release-consistent,
    so data-race-free programs observe nothing weaker than SC while racy
    programs may read diagnosably stale copies (see {!Proto}).  [Delayed]
    and [Prodcons] are never chosen at runtime. *)

type t

val install : Tt_typhoon.System.t -> Tt_stache.Stache.t -> Proto.t -> t
(** Install the observation callback into [proto]. *)

val on_sync : t -> node:int -> Tt_sim.Thread.t -> unit
(** Barrier hook: reclassify every page [node] homes and switch the
    stable misfits.  Wire after {!Proto.flush_release} at the machine's
    [Pre_barrier] sync point (and again at [Post_barrier]). *)

val on_release : t -> node:int -> Tt_sim.Thread.t -> unit
(** Sampled decision point for lock-structured phases: every 8th call
    per node runs {!on_sync}.  Wire after {!Proto.flush_release} at the
    machine's [Pre_release] sync point. *)

val switches : t -> int
(** Total policy switches so far (the shootout records this). *)

val stats : t -> Tt_util.Stats.t
(** [windows], [switches]. *)
