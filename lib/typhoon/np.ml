type work =
  | Message of Tt_net.Message.t
  | Block_fault of Tempest.fault
  | Page_fault of {
      vaddr : int;
      access : Tt_mem.Tag.access;
      resumption : Tempest.resumption;
    }
  | Deferred of (unit -> unit)

let nop () = ()

(* Work queues are circular rings over parallel (time, item) arrays with
   power-of-two capacity, so posting and draining allocate nothing: message
   rings hold [Message.t] directly and the deferred ring holds the bare
   closure, with no [work] variant box per item on the hot paths. *)
type 'a ring = {
  mutable r_times : int array;
  mutable r_items : 'a array;
  mutable head : int;
  mutable count : int;
  r_dummy : 'a;
}

let ring_make dummy =
  { r_times = [||]; r_items = [||]; head = 0; count = 0; r_dummy = dummy }

let ring_grow r =
  let cap = Array.length r.r_items in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let items = Array.make ncap r.r_dummy and times = Array.make ncap 0 in
  for i = 0 to r.count - 1 do
    let j = (r.head + i) land (cap - 1) in
    items.(i) <- r.r_items.(j);
    times.(i) <- r.r_times.(j)
  done;
  r.r_items <- items;
  r.r_times <- times;
  r.head <- 0

let ring_push r at x =
  if r.count = Array.length r.r_items then ring_grow r;
  let i = (r.head + r.count) land (Array.length r.r_items - 1) in
  r.r_times.(i) <- at;
  r.r_items.(i) <- x;
  r.count <- r.count + 1

let ring_pop r =
  let x = r.r_items.(r.head) in
  r.r_items.(r.head) <- r.r_dummy;
  r.head <- (r.head + 1) land (Array.length r.r_items - 1);
  r.count <- r.count - 1;
  x

(* head-of-ring ready time; only meaningful when [count > 0] *)
let ring_time r = r.r_times.(r.head)

type t = {
  engine : Tt_sim.Engine.t;
  np_rtlb : Tt_mem.Tlb.t;
  np_dcache : Tt_cache.Cache.t;
  capacity : int; (* per-ring item cap; [max_int] = unbounded *)
  np_name : string;
  mutable exec : work -> unit;
  mutable msg_exec : Tt_net.Message.t -> unit;
  mutable deferred_exec : (unit -> unit) -> unit;
  mutable self : unit -> unit; (* preallocated dispatch closure *)
  resv : Tt_sim.Engine.reservation; (* a trailing yield's held place *)
  mutable np_clock : int;
  mutable np_busy : bool;
  (* ready times are monotone within a ring, so checking the head suffices *)
  responses : Tt_net.Message.t ring;
  requests : Tt_net.Message.t ring;
  faults : work ring;
  deferred : (unit -> unit) ring;
  mutable handled_count : int;
  mutable busy_cycle_count : int;
}

let clock t = t.np_clock

let charge t n = t.np_clock <- t.np_clock + n

let rtlb t = t.np_rtlb

let dcache t = t.np_dcache

let busy t = t.np_busy

let handled t = t.handled_count

let busy_cycles t = t.busy_cycle_count

let depth t =
  t.responses.count + t.requests.count + t.faults.count + t.deferred.count

(* Finite queueing: each ring rejects pushes beyond [capacity].  With the
   Flow credit layer above, an ample capacity is a pure safety net — credits
   bound arrivals long before the ring fills — so hitting this is a bug or a
   deliberately tiny-capacity overload experiment, and either way it must
   abort loudly, never grow silently. *)
let check_room t r what at =
  if r.count >= t.capacity then
    raise
      (Tt_net.Overload.Overload
         (Printf.sprintf
            "%s: %s ring full (%d items, capacity %d) at t=%d (queues: \
             responses=%d requests=%d faults=%d deferred=%d)"
            t.np_name what r.count t.capacity at t.responses.count
            t.requests.count t.faults.count t.deferred.count))

(* Priority: responses, then faults, then requests, then deferred chores
   (§5.1: the response network must never starve).

   After each item, if no engine event is queued at or before the NP clock
   we may keep draining inline: [Engine.skip_to] advances simulated time to
   exactly where the one-event-per-item schedule would have put it, so the
   observable event order — and every cycle count — is bit-identical to
   rescheduling, minus the queue traffic. *)
let rec dispatch t () =
  let start = t.np_clock in
  if t.responses.count > 0 && ring_time t.responses <= t.np_clock then begin
    t.msg_exec (ring_pop t.responses);
    finish t start
  end
  else if t.faults.count > 0 && ring_time t.faults <= t.np_clock then begin
    t.exec (ring_pop t.faults);
    finish t start
  end
  else if t.requests.count > 0 && ring_time t.requests <= t.np_clock then begin
    t.msg_exec (ring_pop t.requests);
    finish t start
  end
  else if t.deferred.count > 0 && ring_time t.deferred <= t.np_clock then begin
    t.deferred_exec (ring_pop t.deferred);
    finish t start
  end
  else begin
    (* nothing ready at the current clock: idle until the earliest queued
       ready time, or go idle entirely *)
    let earliest = ref max_int in
    if t.responses.count > 0 then earliest := min !earliest (ring_time t.responses);
    if t.faults.count > 0 then earliest := min !earliest (ring_time t.faults);
    if t.requests.count > 0 then earliest := min !earliest (ring_time t.requests);
    if t.deferred.count > 0 then earliest := min !earliest (ring_time t.deferred);
    if !earliest = max_int then t.np_busy <- false
    else begin
      t.np_clock <- max t.np_clock !earliest;
      Tt_sim.Engine.at t.engine t.np_clock t.self
    end
  end

and finish t start =
  t.handled_count <- t.handled_count + 1;
  t.busy_cycle_count <- t.busy_cycle_count + (t.np_clock - start);
  (* Re-enter the loop at the NP's advanced clock so other simulation
     events interleave at the right times.  Strict inequality: an engine
     event already queued at np_clock would have fired before a freshly
     scheduled dispatch (smaller tie-break seq), so we must yield to it.
     With every ring empty that dispatch would only mark the NP idle:
     reserve its place instead, for [kick] to claim. *)
  if Tt_sim.Engine.next_event_time t.engine > t.np_clock then begin
    Tt_sim.Engine.skip_to t.engine t.np_clock;
    dispatch t ()
  end
  else if depth t = 0 && Tt_sim.Engine.reserve t.engine t.resv t.np_clock then
    t.np_busy <- false
  else Tt_sim.Engine.at t.engine t.np_clock t.self

let create engine ~rtlb ~dcache ?(capacity = max_int) ?(name = "np") () =
  if capacity <= 0 then invalid_arg "Np.create: bad capacity";
  let t =
    { engine; np_rtlb = rtlb; np_dcache = dcache; capacity; np_name = name;
      exec = (fun _ -> invalid_arg "Np: exec not installed");
      msg_exec = (fun _ -> ());
      deferred_exec = (fun _ -> ());
      self = nop; resv = Tt_sim.Engine.reservation engine;
      np_clock = 0; np_busy = false;
      responses = ring_make Tt_net.Message.dummy;
      requests = ring_make Tt_net.Message.dummy;
      faults = ring_make (Deferred nop);
      deferred = ring_make nop;
      handled_count = 0; busy_cycle_count = 0 }
  in
  (* compat defaults route the specialized paths through [exec]; machines
     that care about allocation install direct executors instead *)
  t.msg_exec <- (fun m -> t.exec (Message m));
  t.deferred_exec <- (fun f -> t.exec (Deferred f));
  t.self <- dispatch t;
  t

let set_exec t exec = t.exec <- exec

let set_msg_exec t exec = t.msg_exec <- exec

let set_deferred_exec t exec = t.deferred_exec <- exec

let kick t =
  if not t.np_busy then begin
    t.np_busy <- true;
    if not (Tt_sim.Engine.claim t.engine t.resv t.self) then begin
      t.np_clock <- max t.np_clock (Tt_sim.Engine.now t.engine);
      Tt_sim.Engine.at t.engine t.np_clock t.self
    end
  end

let post_message t ~at (m : Tt_net.Message.t) =
  (match m.vnet with
  | Tt_net.Message.Response ->
      check_room t t.responses "response" at;
      ring_push t.responses at m
  | Tt_net.Message.Request ->
      check_room t t.requests "request" at;
      ring_push t.requests at m);
  kick t

let post_deferred t ~at f =
  check_room t t.deferred "deferred" at;
  ring_push t.deferred at f;
  kick t

let post t ~at work =
  match work with
  | Message m -> post_message t ~at m
  | Deferred f -> post_deferred t ~at f
  | Block_fault _ | Page_fault _ ->
      check_room t t.faults "fault" at;
      ring_push t.faults at work;
      kick t
