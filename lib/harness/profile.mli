(** Sampling host-time profiler ([tt profile]).

    [sample f] runs [f] under a wall-clock interval timer ([ITIMER_REAL],
    [SIGALRM]).  A process CPU-time timer ([ITIMER_PROF]) would be the
    textbook choice, but Linux notices its expiries only on scheduler ticks
    that find the process running: on a loaded host it delivers a small
    fraction of the samples, sometimes none.  For the single CPU-bound run
    that [tt profile] samples, wall time and CPU time coincide on an idle
    host.  The signal handler records [Printexc.get_callstack]; nothing
    else runs in it.  The handler and timer exist only for the duration of
    [sample], so code that never calls it is unaffected.

    {b Fibers.}  A simulated CPU runs on its own effect fiber, and a call
    stack taken there holds only that fiber's frames: it does not reach
    the engine event that resumed the fiber.  Samples are therefore split
    three ways: on a CPU fiber, in an engine event (the main stack, under
    [Tt_sim.Engine]), and elsewhere on the main stack (building the
    workload, verification, reporting).

    {b Bias.}  OCaml 5 runs signal handlers at poll points (allocations,
    function entries and loop back-edges), not at the instruction the
    timer interrupted.  Self time of non-allocating code is charged to the
    next poll site, such as [Engine.run]'s loop or an allocation, so the
    self column over-charges loops and allocators.  Read the inclusive and
    per-module views first. *)

type where = Cpu_fiber | Engine_event | Main
(** Where a sample was taken; see above. *)

type t = {
  samples : int;
  interval_s : float;  (** requested period; the kernel may coarsen it *)
  cpu_s : float;  (** process CPU time spent under the timer *)
  by_where : (where * int) list;  (** every [where], in declaration order *)
  event_entries : (string * int) list;
      (** engine-event samples by the event's entry function (the frame
          just inside [Tt_sim.Engine]); largest first *)
  self : (string * int) list;  (** innermost function; largest first *)
  inclusive : (string * int) list;
      (** functions anywhere on the stack, once per sample; largest first *)
  modules_self : (string * int) list;  (** innermost frame's module *)
  modules_inclusive : (string * int) list;
}

val sample : (unit -> 'a) -> 'a * t
(** [sample f] is [f ()] and its profile, sampled once per millisecond
    of wall-clock time while [f] runs (a signal raised while the process
    is switched out is handled when it resumes; the report gives the CPU
    time and the sample count). *)

val summarize :
  interval_s:float -> cpu_s:float -> caller:string array ->
  string array list -> t
(** Fold call stacks (frame names, innermost first) into a profile.  A
    stack that ends with [caller] (the stack where sampling started) was
    taken on the main stack, and those frames are dropped from it.  Frame
    names are [Lib__Module.fn...] as the runtime reports them;
    [Lib__Module] is shown as [Lib.Module]. *)

val pp : Format.formatter -> t -> unit
(** The sample counts by [where], then the top 20 event entry functions,
    inclusive and self functions, and modules (by inclusive share, with
    their self share). *)
