module Stats = Tt_util.Stats

type state = Runnable | Blocked | Finished

(* Poll/continuation slot states (see DESIGN.md §5c).  Every blocking
   operation goes through one reusable per-thread slot:

     w_idle --- await runs [register] ---> w_registering
     w_registering -- wake fired, inline safe ------------> w_fired
     w_registering -- wake fired, resume event scheduled -> w_deferred
     w_registering -- register returned unfired ----------> w_suspended
     w_suspended --- wake fired, resume event scheduled --> w_woken

   [w_fired] returns inline without capturing a continuation; the other
   fired states resume through a preallocated engine event that runs the
   captured continuation. *)
let w_idle = 0

let w_registering = 1

let w_fired = 2

let w_deferred = 3

let w_suspended = 4

let w_woken = 5

type t = {
  engine : Engine.t;
  thread_name : string;
  quantum : int;
  mutable clock : int;
  mutable last_yield : int;
  mutable state : state;
  mutable wait : int;  (* slot state, one of the [w_*] values above *)
  mutable wait_gen : int;
      (* bumped when an await completes; a wake closure carries the
         generation it was created under, so late calls are rejected *)
  mutable slot_value : int;  (* value passed to the wake, for the resume *)
  mutable resume_k : int -> unit;
      (* runner for the captured continuation of the await in flight *)
  mutable resume_event : unit -> unit;
      (* preallocated engine callback: [resume_k slot_value] *)
  mutable elide_streak : int;
  mutable c_taken : Stats.counter option;
  mutable c_elided : Stats.counter option;
}

exception Failure_in of string * exn

(* Continuation capture for a genuine suspension: performed by [await]
   after [register] returned (or after a mid-registration wake found it
   could not elide).  The handler only stores the continuation runner; the
   resume event (scheduled by the wake, with the wake's FIFO seq) invokes
   it. *)
type _ Effect.t += Capture : int Effect.t

(* TT_FASTPATH=0 forces every blocking operation through the full
   effect suspension: the proof knob that the inline fast path is
   timing-neutral. *)
let fastpath =
  ref
    (match Sys.getenv_opt "TT_FASTPATH" with
    | Some ("0" | "false" | "no") -> false
    | Some _ | None -> true)

let set_fastpath on = fastpath := on

let fastpath_enabled () = !fastpath

(* Bound on consecutive inline continuations.  Eliding a resume keeps the
   thread running inside the current engine event; an unbounded streak
   would keep a compute-heavy thread from ever returning control to
   [Engine.run_until] (watchdog slices).  Forcing one real suspension per
   [max_elide_streak] elisions bounds inline run-ahead without changing
   simulated timing (elided and scheduled resumes are equivalent either
   way). *)
let max_elide_streak = 64

let name t = t.thread_name

let clock t = t.clock

let set_clock t c = t.clock <- c

let advance t n = t.clock <- t.clock + n

let finished t = t.state = Finished

let blocked t = t.state = Blocked

let wake_time t = max t.clock (Engine.now t.engine)

let incr_opt = function Some c -> Stats.Counter.incr c | None -> ()

let set_suspend_counters t ~taken ~elided =
  t.c_taken <- Some taken;
  t.c_elided <- Some elided

let can_elide t time =
  !fastpath && t.elide_streak < max_elide_streak
  && Engine.elidable_at t.engine time

(* Wake the slot.  For a wake that fires while [register] is still running,
   decide *now* whether the thread may continue inline: if any queued event
   would fire at or before the resume time — or the fast path is off — a
   resume event is scheduled immediately, so it carries the same FIFO seq
   the old direct [Engine.at] wake did (this matters when the rest of
   [register] schedules more same-time events, e.g. a barrier releasing the
   other waiters). *)
let fire t gen v =
  if gen <> t.wait_gen then
    invalid_arg (Printf.sprintf "Thread %s woken twice" t.thread_name);
  if t.wait = w_registering then begin
    t.slot_value <- v;
    t.state <- Runnable;
    t.clock <- wake_time t;
    t.last_yield <- t.clock;
    if can_elide t t.clock then t.wait <- w_fired
    else begin
      t.wait <- w_deferred;
      Engine.at t.engine t.clock t.resume_event
    end
  end
  else if t.wait = w_suspended then begin
    t.slot_value <- v;
    t.state <- Runnable;
    t.clock <- wake_time t;
    (* blocking re-synchronized us with global time: reset the run-ahead
       bookkeeping so the continuation is not immediately preempted by
       maybe_yield.  This is what lets a CPU's retried access win against
       a queued invalidation after a fill — the hardware's
       forward-progress guarantee. *)
    t.last_yield <- t.clock;
    t.wait <- w_woken;
    Engine.at t.engine t.clock t.resume_event
  end
  else if t.wait = w_idle then
    (* a matching generation with an idle slot means no await/park is in
       flight at all — e.g. [unpark] on a thread that never parked.  Distinct
       from a double wake, which finds the slot in a fired state. *)
    invalid_arg
      (Printf.sprintf
         "Thread %s: woken with no blocking operation in flight (slot idle)"
         t.thread_name)
  else invalid_arg (Printf.sprintf "Thread %s woken twice" t.thread_name)

let complete t v =
  t.wait <- w_idle;
  t.wait_gen <- t.wait_gen + 1;
  v

(* Second half of every await, after [register] returned. *)
let await_end t =
  if t.wait = w_fired then begin
    incr_opt t.c_elided;
    t.elide_streak <- t.elide_streak + 1;
    (* the resume event would have been the next to fire: advance [now]
       exactly as its firing would, then continue inline.  If [register]
       scheduled an event *before* the resume time after waking us, this
       skip_to raises — such a site must not be elided. *)
    Engine.skip_to t.engine t.clock;
    complete t t.slot_value
  end
  else if t.wait = w_registering then begin
    incr_opt t.c_taken;
    t.elide_streak <- 0;
    t.wait <- w_suspended;
    complete t (Effect.perform Capture)
  end
  else if t.wait = w_deferred then begin
    incr_opt t.c_taken;
    t.elide_streak <- 0;
    complete t (Effect.perform Capture)
  end
  else assert false

let begin_wait t =
  if t.wait <> w_idle then
    invalid_arg
      (Printf.sprintf "Thread %s: blocking operation while one is in flight"
         t.thread_name);
  t.wait <- w_registering

let await t register =
  begin_wait t;
  let gen = t.wait_gen in
  register (fun v -> fire t gen v);
  await_end t

let await_unit t register =
  begin_wait t;
  let gen = t.wait_gen in
  register (fun () -> fire t gen 0);
  ignore (await_end t)

let park t enqueue =
  begin_wait t;
  enqueue ();
  ignore (await_end t)

let unpark t = fire t t.wait_gen 0

let spawn engine ?(quantum = 200) ?start ~name body =
  let start = match start with Some s -> s | None -> Engine.now engine in
  let t =
    { engine; thread_name = name; quantum; clock = start; last_yield = start;
      state = Runnable; wait = w_idle; wait_gen = 0; slot_value = 0;
      resume_k = (fun _ -> ()); resume_event = (fun () -> ());
      elide_streak = 0; c_taken = None; c_elided = None }
  in
  t.resume_k <-
    (fun _ ->
      invalid_arg
        (Printf.sprintf "Thread %s: resume with no captured continuation"
           t.thread_name));
  t.resume_event <- (fun () -> t.resume_k t.slot_value);
  let handler =
    {
      Effect.Deep.retc = (fun () -> t.state <- Finished);
      exnc =
        (fun exn ->
          let bt = Printexc.get_raw_backtrace () in
          t.state <- Finished;
          Printexc.raise_with_backtrace (Failure_in (t.thread_name, exn)) bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Capture ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  t.resume_k <- (fun v -> Effect.Deep.continue k v);
                  (* a deferred wake already marked us runnable and queued
                     the resume event; only an unfired registration is a
                     real block *)
                  if t.wait = w_suspended then t.state <- Blocked)
          | _ -> None);
    }
  in
  Engine.at engine start (fun () -> Effect.Deep.match_with body t handler);
  t

let yield t =
  let c = wake_time t in
  if can_elide t c then begin
    incr_opt t.c_elided;
    t.elide_streak <- t.elide_streak + 1;
    t.clock <- c;
    t.last_yield <- c;
    Engine.skip_to t.engine c
  end
  else begin
    (* equivalent to the pre-slot yield: one engine event at [c] scheduled
       from this point in the instruction stream, then a full suspension *)
    begin_wait t;
    unpark t;
    ignore (await_end t)
  end

let maybe_yield t =
  if t.clock - t.last_yield >= t.quantum then begin
    t.last_yield <- t.clock;
    yield t
  end
