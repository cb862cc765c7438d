(** Simulated computation threads (one per simulated CPU).

    A thread is an OCaml-5 effect fiber with a private cycle clock.  Code
    running inside the fiber charges cycles with {!advance} and blocks
    through a reusable per-thread {e poll/continuation slot}: a blocking
    operation ({!await}, {!await_unit}, {!park}) first runs its registration
    closure, and if the wake has already fired by the time registration
    returns — lock uncontended, barrier last-arriver, data already local —
    the thread continues {e inline}, without capturing a continuation.  Only
    a genuine cross-event wait (a wake that arrives from a later engine
    event, e.g. a protocol handler on the network processor) performs the
    full [Effect.perform] fiber suspension.  The memory system uses this to
    implement Tempest's suspend-handle-resume semantics for block access
    faults.

    The inline fast path is timing-neutral: it is taken only when
    {!Engine.elidable_at} proves that continuing inline is indistinguishable
    from scheduling the resume event and letting the queue fire it.
    [TT_FASTPATH=0] (or {!set_fastpath}) disables it, forcing every blocking
    operation through the full suspension — simulated results are
    bit-identical either way (asserted by tests and
    [scripts/check_all.sh]).

    A thread's clock may run ahead of global time by at most [quantum]
    cycles between yields, mirroring the Wind Tunnel's quantum-based
    conservative synchronization. *)

type t

exception Failure_in of string * exn
(** Raised out of {!Engine.run} when a thread body raises: carries the thread
    name and the original exception. *)

val spawn :
  Engine.t -> ?quantum:int -> ?start:int -> name:string -> (t -> unit) -> t
(** [spawn engine ~name body] creates a thread and schedules its first step
    at time [start] (default: now).  [quantum] (default 200 cycles) bounds
    how far the local clock may run ahead before {!maybe_yield} reinserts the
    thread into the event queue. *)

val name : t -> string

val clock : t -> int
(** Local cycle count. *)

val set_clock : t -> int -> unit
(** Used by protocol completion paths: set the local clock to the simulated
    completion time before calling the thread's wake function. *)

val advance : t -> int -> unit
(** Charge [n] cycles to the local clock. *)

val finished : t -> bool

val blocked : t -> bool

val await : t -> ((int -> unit) -> unit) -> int
(** [await t register] must be called from inside the thread's own body.
    [register] runs immediately and receives [wake]; calling [wake v]
    (exactly once, now or later) resumes the thread at [max (clock t) now]
    and makes [await] return [v].

    If [wake] fires before [register] returns and no queued engine event
    would run at or before the resume time, [await] returns inline — no
    continuation is captured and no engine event is scheduled (the engine
    clock still advances to the resume time, via {!Engine.skip_to}).
    Otherwise the thread suspends and the wake's resume event runs the
    captured continuation.  A second call of the same [wake], or a call
    after the await completed, raises [Invalid_argument]. *)

val await_unit : t -> ((unit -> unit) -> unit) -> unit
(** {!await} for waits that carry no value. *)

val park : t -> (unit -> unit) -> unit
(** [park t enqueue] blocks like {!await_unit}, but the registration takes
    no wake closure: [enqueue] records the thread itself somewhere (e.g. a
    waiter list) and a later {!unpark} fires the slot directly.  Use only
    where the waker provably targets the wait the thread is currently
    blocked in — the closure-free counterpart for the sim-internal lock and
    barrier waiter lists. *)

val unpark : t -> unit
(** Fire the wake of [t]'s wait in flight (registered via {!park} or any
    await).  Raises [Invalid_argument] if the thread is not waiting. *)

val yield : t -> unit
(** Re-enter the event queue at the current local clock, letting events with
    earlier timestamps run first.  When no queued event would fire at or
    before the local clock this is a cheap inline re-enqueue: no effect, no
    continuation capture, no engine event. *)

val maybe_yield : t -> unit
(** {!yield} only if the local clock has outrun the last yield by more than
    the quantum.  Call this on every simulated memory access. *)

val set_fastpath : bool -> unit
(** Enable/disable the inline fast path at runtime (initial value from
    [TT_FASTPATH], default enabled).  For ablation and equivalence tests. *)

val fastpath_enabled : unit -> bool

val set_suspend_counters :
  t -> taken:Tt_util.Stats.counter -> elided:Tt_util.Stats.counter -> unit
(** Wire the per-node statistics cells bumped on every full suspension
    ([taken]) and every inline completion ([elided]). *)
