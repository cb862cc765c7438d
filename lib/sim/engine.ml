(* The event queue packs each event's (time, seq) priority into one
   immediate int — [time lsl seq_bits lor seq] — so the queue compares
   plain ints and stores the callback directly: no per-event record, no
   comparator closure.  See DESIGN.md "Performance" for the bit budget.
   The queue is the monomorphic binary heap {!Tt_util.Intheap}.

   [seq] breaks ties FIFO among events that coexist at equal times.  It
   resets to 0 whenever the queue drains (FIFO order only matters among
   coexisting events), and in the rare case that [seq_limit] events are
   scheduled without the queue ever draining, the live queue is renumbered
   in place ([rebase]), preserving order. *)

module Q = Tt_util.Intheap

let seq_bits = 20

let seq_limit = 1 lsl seq_bits

let max_time = max_int asr seq_bits

(* With a tie-break perturber installed, the seq field is split into a salt
   (high bits, from the perturber) and a FIFO counter (low bits): events at
   equal times sort by salt first, FIFO among equal salts.  Salt 0 is the
   neutral value — an all-zero salt stream reproduces pure FIFO order. *)
let salt_bits = 8

let salt_limit = 1 lsl salt_bits

let counter_bits = seq_bits - salt_bits

let counter_mask = (1 lsl counter_bits) - 1

type t = {
  events : (unit -> unit) Q.t;
  mutable now : int;
  mutable seq : int;
  mutable tiebreak : (int -> int) option;
  mutable tiebreak_sites : int;
  mutable run_limit : int;
      (* horizon of an in-progress [run_until]; [max_int] otherwise.  Inline
         continuations ([elidable_at]) must not advance [now] past it, or a
         watchdog-sliced run would observe different slice boundaries than
         the equivalent one-event-per-resume schedule. *)
  mutable trace : (int -> unit) option;
      (* drain observer: called with each fired event's packed key, before
         the callback runs.  Powers the whole-run benchmark's event
         counts; [None] keeps [fire] branch-predicted and allocation-free. *)
}

let nop () = ()

let create () =
  { events = Q.create ~capacity:256 ~dummy:nop (); now = 0; seq = 0;
    tiebreak = None; tiebreak_sites = 0; run_limit = max_int; trace = None }

let set_tiebreak t f = t.tiebreak <- f

let tiebreak_sites t = t.tiebreak_sites

let set_trace t f = t.trace <- f

let now t = t.now

let pending t = Q.length t.events

(* Renumber queued events with consecutive seqs starting from 0.  Draining
   the queue yields ascending (time, seq) order, so reassigning seq by drain
   position preserves the relative order exactly.

   With a tie-break perturber installed the seq field is split: the high
   [salt_bits] are ordering salt, not FIFO position, and a later same-time
   push will carry its own salt.  Renumbering across the full field would
   clobber the salt with drain position, so a rebased event would compare
   against that later push by position instead of by salt.  Preserve the
   time and salt bits and renumber only the FIFO counter, restarting it at
   each (time, salt) boundary — same-(time, salt) events are contiguous in
   drain order, so relative order is preserved, and every renumbered
   counter stays below the fresh [t.seq = n] that later pushes truncate
   from. *)
let rebase t =
  let n = Q.length t.events in
  let keys = Array.make n 0 and fns = Array.make n nop in
  for i = 0 to n - 1 do
    keys.(i) <- Q.min_key t.events;
    fns.(i) <- Q.pop_exn t.events
  done;
  (match t.tiebreak with
  | None ->
      (* pure-FIFO keys: the whole [seq_bits] field is drain position *)
      for i = 0 to n - 1 do
        Q.push t.events
          (((keys.(i) asr seq_bits) lsl seq_bits) lor i)
          fns.(i)
      done
  | Some _ ->
      let counter = ref 0 in
      for i = 0 to n - 1 do
        (* [time lsl salt_bits lor salt]: everything above the counter *)
        let ts = keys.(i) asr counter_bits in
        if i > 0 && keys.(i - 1) asr counter_bits <> ts then counter := 0;
        Q.push t.events
          ((ts lsl counter_bits) lor (!counter land counter_mask))
          fns.(i);
        incr counter
      done);
  t.seq <- n

let at t time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.at: scheduling at %d which is before now=%d" time
         t.now);
  if time > max_time then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d exceeds the %d-bit budget" time
         (Sys.int_size - 1 - seq_bits));
  if t.seq >= seq_limit then rebase t;
  (match t.tiebreak with
  | None -> Q.push t.events ((time lsl seq_bits) lor t.seq) fn
  | Some salt_of ->
      (* perturbed tie-breaking: same-time events sort by salt, then FIFO.
         The counter is truncated to its bit budget; a collision between
         far-apart coexisting events merely makes their order salt-driven,
         which is exactly what perturbation permits. *)
      let salt = salt_of t.tiebreak_sites land (salt_limit - 1) in
      t.tiebreak_sites <- t.tiebreak_sites + 1;
      Q.push t.events
        ((time lsl seq_bits) lor (salt lsl counter_bits)
        lor (t.seq land counter_mask))
        fn);
  t.seq <- t.seq + 1

let after t delay fn =
  (* [t.now + delay] silently wraps past max_int for huge delays, landing
     either negative (caught by [at] with a misleading "before now") or,
     for delays past 2*max_int - now, back among valid times; reject the
     overflow here with both operands named.  [max_time < max_int], so
     every non-wrapping overflow is also caught. *)
  if delay > max_time - t.now then
    invalid_arg
      (Printf.sprintf
         "Engine.after: delay %d from now=%d overflows the schedulable time \
          budget (max %d)"
         delay t.now max_time);
  at t (t.now + delay) fn

let next_event_time t =
  if Q.is_empty t.events then max_int
  else Q.min_key t.events asr seq_bits

(* [elidable_at t time] decides whether a caller may advance [now] to
   [time] with {!skip_to} and keep executing inline instead of scheduling a
   callback at [time] and letting the queue fire it.  The two are
   indistinguishable iff no queued event would fire at or before [time]
   (strict: an already-queued same-time event has a smaller FIFO seq and
   must run first), [time] is within any active [run_until] horizon, and no
   tie-break perturber is installed — eliding an [at] call would shift every
   later perturbation site index and break salt-journal replay. *)
let elidable_at t time =
  time >= t.now && time <= t.run_limit
  && (match t.tiebreak with None -> true | Some _ -> false)
  && (Q.is_empty t.events || Q.min_key t.events asr seq_bits > time)

let skip_to t time =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.skip_to: target %d is before now=%d" time t.now);
  if time > next_event_time t then
    invalid_arg
      (Printf.sprintf
         "Engine.skip_to: target %d is past the next queued event at %d" time
         (next_event_time t));
  t.now <- time

(* Shared fast path for step/run/run_until: fire the minimum event whose
   key the caller already peeked — the single queue read both entry
   points used to duplicate. *)
let fire t key =
  t.now <- key asr seq_bits;
  (match t.trace with None -> () | Some f -> f key);
  let fn = Q.pop_exn t.events in
  (* FIFO order only matters among coexisting events: restart the tie
     counter whenever the queue drains so it can never overflow in
     steady-state workloads. *)
  if Q.is_empty t.events then t.seq <- 0;
  fn ()

let step t =
  if Q.is_empty t.events then false
  else begin
    fire t (Q.min_key t.events);
    true
  end

let run t = while step t do () done

let run_until t ~limit =
  let rec go () =
    if Q.is_empty t.events then true
    else begin
      let key = Q.min_key t.events in
      if key asr seq_bits > limit then false
      else begin
        fire t key;
        go ()
      end
    end
  in
  t.run_limit <- limit;
  Fun.protect ~finally:(fun () -> t.run_limit <- max_int) go
