(** Discrete-event simulation engine.

    Time is a global cycle count.  Events are closures executed in
    non-decreasing time order; ties are broken FIFO so runs are
    deterministic.  This is our stand-in for the Wisconsin Wind Tunnel's
    quantum-synchronized direct execution: simulated processors (see
    {!Thread}) insert themselves here whenever they interact with shared
    state.

    The queue compares packed [(time, seq)] priorities —
    [time lsl 20 lor seq] — so scheduling and stepping allocate nothing
    beyond the caller's callback closure.  Times are limited to
    [max_int asr 20] cycles (~4.4e12 on 64-bit); {!at} raises past that.
    The queue is the monomorphic binary heap {!Tt_util.Intheap}. *)

type t

val create : unit -> t
(** An engine at time 0 with an empty queue. *)

val now : t -> int
(** Timestamp of the event currently executing (0 before the first). *)

val at : t -> int -> (unit -> unit) -> unit
(** [at t time fn] schedules [fn] at absolute [time].  Scheduling in the past
    (time < now) is an error. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t delay fn] schedules [fn] at [now t + delay]. *)

val pending : t -> int
(** Number of scheduled events not yet run. *)

val set_tiebreak : t -> (int -> int) option -> unit
(** Install (or remove) a deterministic same-timestamp tie-break perturber.

    With [None] (the default) ties are broken strictly FIFO and scheduling
    is bit-identical to the unperturbed engine.  With [Some salt_of], every
    {!at} call obtains a {e salt} — [salt_of site land 0xff], where [site]
    is a counter of perturbed scheduling decisions so far — and events that
    coexist at equal times sort by salt first, FIFO among equal salts.
    Salt [0] is the neutral value: an all-zero salt stream reproduces pure
    FIFO order among the salted events.  Perturbation never reorders events
    across distinct timestamps.

    @raise Invalid_argument while a {!reserve}d slot is live.

    The salt source is called exactly once per scheduling decision with
    consecutive site indices, so a seeded generator yields reproducible
    perturbed schedules and a recorded [site -> salt] journal replays one
    exactly (see [Tt_torture.Trace]). *)

val tiebreak_sites : t -> int
(** Number of tie-break decisions drawn so far (0 when no perturber has
    ever been installed). *)

val set_trace : t -> (int -> unit) option -> unit
(** Install (or remove) a drain observer: [f key] is called with each fired
    event's packed [(time, salt, seq)] key, after [now] has advanced but
    before the callback runs.  [None] (the default) keeps the drain path
    free of the extra call.  This is the event-count probe of the whole-run
    benchmark ([perfbench/]). *)

val next_event_time : t -> int
(** Timestamp of the earliest queued event, or [max_int] when the queue is
    empty.  Lets a dispatcher decide whether it may keep draining its own
    work inline (see {!skip_to}) without perturbing event order. *)

val elidable_at : t -> int -> bool
(** [elidable_at t time] is [true] when advancing [now] to [time] with
    {!skip_to} and continuing execution inline is indistinguishable from
    scheduling a callback at [time] and letting the queue fire it: no queued
    event at or before [time] (strictly — a coexisting same-time event has
    an earlier FIFO seq and must run first), [time] within an active
    {!run_until} horizon, and no {!set_tiebreak} perturber installed
    (eliding an {!at} call would shift every later perturbation site).
    This is the guard behind {!Thread}'s suspension-free fast path. *)

val skip_to : t -> int -> unit
(** [skip_to t time] advances [now] to [time] without running any event.
    Only valid while no queued event would fire at or before [time]
    (i.e. [time <= next_event_time t] and [time >= now t]); this keeps the
    clock monotone and the event order identical to scheduling a callback
    at [time] and letting it fire.  Used by batched NP dispatch to drain
    same-timestamp work items in one engine event. *)

type reservation
(** A controller's slot for a reserved dispatch. *)

val reservation : t -> reservation
(** A fresh slot, registered so renumbering keeps it in order. *)

val reserve : t -> reservation -> int -> bool
(** [reserve t r time] takes the FIFO position [at t time fn] would take
    now, without queueing anything.  A controller that yields with nothing
    left to do calls it instead of queueing a dispatch that would only mark
    it idle.  [r] stays live until a later key fires or {!skip_to} passes
    it, exactly when that dispatch would have fired.  Refused ([false]:
    use {!at}) outside {!run} — under {!run_until} and {!step} — and with a
    perturber installed, so those see every event. *)

val claim : t -> reservation -> (unit -> unit) -> bool
(** [claim t r fn] schedules [fn] at [r]'s key if [r] is live ([true]),
    else returns [false] for the caller to schedule as an idle controller
    does.  Either way [r] is free afterwards. *)

val step : t -> bool
(** Fire the earliest event; [false] when none is queued. *)

val run : t -> unit
(** Execute events until none remain, then advance [now] to the latest
    live reservation, as its dispatch would have. *)

val run_until : t -> limit:int -> bool
(** Execute events with time ≤ [limit].  Returns [true] if the queue drained
    (simulation finished), [false] if it stopped at the limit. *)
