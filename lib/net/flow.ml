module Stats = Tt_util.Stats
module Vec = Tt_util.Vec
module Thread = Tt_sim.Thread

(* Credit-based per-(src,dst,vnet) flow control with the §5.1 overflow
   path.  A sender holding a credit hands its message straight to the
   reliable transport; a sender out of credits parks the message in a
   per-pair queue — blocking the calling CPU thread, or spilling from an
   NP handler into the node's bounded overflow buffer.  The receiver's NP
   returns the credit when it finishes executing the message's handler,
   which (after a wire delay) posts a drain chore — the second-level
   status dispatch — on the sender's NP to move parked messages onto the
   network and wake blocked threads.

   Ordering: the reliable transport sequences BOTH vnets per (src,dst)
   pair in send order, which Stache's data/inval ordering depends on.  The
   parked queues must not break that: a parked pair keeps one monotone
   sequence across its two sub-queues, a direct send is refused whenever
   it would overtake a parked message it must stay behind, and a parked
   request drains only when no earlier-parked response remains.  Parked
   responses may overtake parked requests (and fresh responses may
   overtake parked requests) — the same priority the NP dispatch loop
   gives the response network, and the reason the response vnet's separate
   credits always leave enough to drain (§5.1). *)

type item = {
  i_seq : int; (* pair-local park order, spanning both sub-queues *)
  i_msg : Message.t;
  i_wake : (unit -> unit) option; (* [Some] = a blocked CPU sender *)
}

type pair = {
  p_src : int;
  p_dst : int;
  mutable p_seq : int;
  resp_q : item Queue.t;
  req_q : item Queue.t;
}

type t = {
  net : Reliable.t;
  nnodes : int;
  request_credits : int;
  response_credits : int;
  spill_capacity : int;
  spill_cost : int;
  drain_cost : int;
  status_cost : int;
  credits : int array; (* ((src*n)+dst)*2 + vnet index *)
  pairs : pair option array; (* (src*n)+dst, lazily created on pressure *)
  active : int Vec.t array; (* per src: dsts with parked items, park order *)
  in_active : bool array; (* (src*n)+dst: dst present in active.(src) *)
  queued : int array; (* per src: parked items, both kinds *)
  spilled : int array; (* per src: parked items without a waker *)
  drain_posted : bool array;
  chores : (unit -> unit) array; (* preallocated drain chore per node *)
  (* machine hooks, installed by the system after its NPs exist *)
  mutable hook_post : int -> (unit -> unit) -> unit;
  mutable hook_clock : int -> int;
  mutable hook_charge : int -> int -> unit;
  mutable hook_status : int -> pending:int -> unit;
  counters : Stats.t;
  c_blocked : Stats.counter;
  c_spilled : Stats.counter;
  c_drained : Stats.counter;
  c_drains : Stats.counter;
  c_peak : Stats.counter;
}

let no_hooks _ = invalid_arg "Flow: machine hooks not installed"

let create net ~nodes ~request_credits ~response_credits ~spill_capacity
    ~spill_cost ~drain_cost ~status_cost () =
  if nodes <= 0 then invalid_arg "Flow.create";
  if request_credits <= 0 || response_credits <= 0 then
    invalid_arg "Flow.create: credits must be positive";
  if spill_capacity < 0 then invalid_arg "Flow.create: bad spill capacity";
  let credits =
    Array.init (nodes * nodes * 2) (fun i ->
        if i land 1 = 0 then request_credits else response_credits)
  in
  let counters = Stats.create "flow" in
  let t =
    {
      net;
      nnodes = nodes;
      request_credits;
      response_credits;
      spill_capacity;
      spill_cost;
      drain_cost;
      status_cost;
      credits;
      pairs = Array.make (nodes * nodes) None;
      active = Array.init nodes (fun _ -> Vec.create ());
      in_active = Array.make (nodes * nodes) false;
      queued = Array.make nodes 0;
      spilled = Array.make nodes 0;
      drain_posted = Array.make nodes false;
      chores = Array.make nodes (fun () -> ());
      hook_post = (fun _ _ -> no_hooks ());
      hook_clock = (fun _ -> no_hooks ());
      hook_charge = (fun _ _ -> no_hooks ());
      hook_status = (fun _ ~pending:_ -> no_hooks ());
      counters;
      c_blocked = Stats.counter counters "flow.blocked";
      c_spilled = Stats.counter counters "flow.spilled";
      c_drained = Stats.counter counters "flow.drained";
      c_drains = Stats.counter counters "flow.drain_chores";
      c_peak = Stats.counter counters "flow.peak_queued";
    }
  in
  t

let stats t = t.counters

let node_queued t node = t.queued.(node)

let peak_queued t = Stats.Counter.get t.c_peak

let vidx = function Message.Request -> 0 | Message.Response -> 1

let cidx t ~src ~dst v = (((src * t.nnodes) + dst) * 2) + vidx v

let credit_level t ~src ~dst v = t.credits.(cidx t ~src ~dst v)

let pair_get t src dst =
  let i = (src * t.nnodes) + dst in
  match t.pairs.(i) with
  | Some p -> p
  | None ->
      let p =
        { p_src = src; p_dst = dst; p_seq = 0; resp_q = Queue.create ();
          req_q = Queue.create () }
      in
      t.pairs.(i) <- Some p;
      p

(* A direct send is refused when out of credit, or when it would overtake a
   parked message it must stay behind: anything already parked for a
   request, any parked response for a response. *)
let must_park t ~src ~dst v =
  t.credits.(cidx t ~src ~dst v) <= 0
  ||
  match t.pairs.((src * t.nnodes) + dst) with
  | None -> false
  | Some p -> (
      match v with
      | Message.Response -> not (Queue.is_empty p.resp_q)
      | Message.Request ->
          not (Queue.is_empty p.resp_q && Queue.is_empty p.req_q))

(* --- occupancy / diagnostics ------------------------------------------ *)

let describe_pair t p b =
  Printf.sprintf "%d->%d parked resp=%d req=%d credits resp=%d/%d req=%d/%d"
    p.p_src p.p_dst (Queue.length p.resp_q) (Queue.length p.req_q)
    (credit_level t ~src:p.p_src ~dst:p.p_dst Message.Response)
    b.response_credits
    (credit_level t ~src:p.p_src ~dst:p.p_dst Message.Request)
    b.request_credits

let describe_node t src =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "node %d: %d parked (%d spilled, spill capacity %d)" src
       t.queued.(src) t.spilled.(src) t.spill_capacity);
  Vec.iter
    (fun dst ->
      match t.pairs.((src * t.nnodes) + dst) with
      | None -> ()
      | Some p ->
          Buffer.add_string b "; ";
          Buffer.add_string b (describe_pair t p t))
    t.active.(src);
  Buffer.contents b

let describe t =
  let b = Buffer.create 64 in
  for src = 0 to t.nnodes - 1 do
    if t.queued.(src) > 0 then begin
      if Buffer.length b > 0 then Buffer.add_string b " | ";
      Buffer.add_string b (describe_node t src)
    end
  done;
  if Buffer.length b = 0 then "no parked senders" else Buffer.contents b

(* --- parking ----------------------------------------------------------- *)

let note_peak t src =
  if t.queued.(src) > Stats.Counter.get t.c_peak then
    Stats.Counter.add t.c_peak (t.queued.(src) - Stats.Counter.get t.c_peak)

let enqueue t ~src ~dst v msg wake =
  let p = pair_get t src dst in
  (* the [in_active] guard (not an emptiness check) prevents a duplicate
     entry when a thread woken inline mid-drain re-parks for a pair whose
     stale vec slot has not been compacted away yet *)
  if not t.in_active.((src * t.nnodes) + dst) then begin
    t.in_active.((src * t.nnodes) + dst) <- true;
    Vec.push t.active.(src) dst
  end;
  let item = { i_seq = p.p_seq; i_msg = msg; i_wake = wake } in
  p.p_seq <- p.p_seq + 1;
  (match v with
  | Message.Response -> Queue.add item p.resp_q
  | Message.Request -> Queue.add item p.req_q);
  t.queued.(src) <- t.queued.(src) + 1;
  note_peak t src

let overflow_diag t src =
  Printf.sprintf
    "Flow: node %d overflow buffer full — %s; %d retransmissions outstanding"
    src (describe_node t src)
    (Reliable.retransmits t.net)

let send_direct t ~at ~src ~dst v msg =
  let ci = cidx t ~src ~dst v in
  t.credits.(ci) <- t.credits.(ci) - 1;
  Reliable.send t.net ~at msg

let send_from_handler t ~at msg =
  let src = msg.Message.src and dst = msg.Message.dst in
  let v = msg.Message.vnet in
  if must_park t ~src ~dst v then begin
    (* §5.1: the handler cannot block; redirect the send into the node's
       user-level overflow buffer, or abort loudly when even that is full *)
    if t.spilled.(src) >= t.spill_capacity then
      raise (Overload.Overload (overflow_diag t src));
    t.hook_charge src t.spill_cost;
    t.spilled.(src) <- t.spilled.(src) + 1;
    Stats.Counter.incr t.c_spilled;
    enqueue t ~src ~dst v msg None
  end
  else send_direct t ~at ~src ~dst v msg

let send_from_cpu t ~at th msg =
  let src = msg.Message.src and dst = msg.Message.dst in
  let v = msg.Message.vnet in
  if must_park t ~src ~dst v then begin
    Stats.Counter.incr t.c_blocked;
    (* cold path: the two closures below allocate, but only when actually
       blocking — the credit-rich direct path allocates nothing *)
    Thread.await_unit th (fun wake ->
        enqueue t ~src ~dst v msg
          (Some
             (fun () ->
               (* the drain runs on the node's NP; the thread resumes no
                  earlier than the NP time its message hit the wire at *)
               Thread.set_clock th
                 (max (Thread.clock th) (t.hook_clock src));
               wake ())))
  end
  else send_direct t ~at ~src ~dst v msg

(* --- draining ---------------------------------------------------------- *)

let drainable_resp t p =
  (not (Queue.is_empty p.resp_q))
  && credit_level t ~src:p.p_src ~dst:p.p_dst Message.Response > 0

(* a parked request drains only when no earlier-parked response remains:
   releasing it past one would reorder the pair's cross-vnet stream *)
let drainable_req t p =
  (not (Queue.is_empty p.req_q))
  && credit_level t ~src:p.p_src ~dst:p.p_dst Message.Request > 0
  && (Queue.is_empty p.resp_q
     || (Queue.peek p.resp_q).i_seq > (Queue.peek p.req_q).i_seq)

let pair_drainable t p = drainable_resp t p || drainable_req t p

let release t p v q =
  let item = Queue.pop q in
  let src = p.p_src in
  let ci = cidx t ~src ~dst:p.p_dst v in
  t.credits.(ci) <- t.credits.(ci) - 1;
  t.queued.(src) <- t.queued.(src) - 1;
  Stats.Counter.incr t.c_drained;
  t.hook_charge src t.drain_cost;
  (* put the message on the wire before waking its sender: the resumed
     thread must observe its send as already done *)
  Reliable.send t.net ~at:(t.hook_clock src) item.i_msg;
  match item.i_wake with
  | Some wake -> wake ()
  | None -> t.spilled.(src) <- t.spilled.(src) - 1

let rec drain_pair t p =
  if drainable_resp t p then begin
    release t p Message.Response p.resp_q;
    drain_pair t p
  end
  else if drainable_req t p then begin
    release t p Message.Request p.req_q;
    drain_pair t p
  end

(* The drain chore, run on the owning node's NP: §5.1's second-level
   dispatch of the overflow status handler. *)
let run_drain t node =
  t.drain_posted.(node) <- false;
  Stats.Counter.incr t.c_drains;
  t.hook_charge node t.status_cost;
  let av = t.active.(node) in
  let kept = ref 0 in
  let keep_or_drop dst =
    match t.pairs.((node * t.nnodes) + dst) with
    | None -> t.in_active.((node * t.nnodes) + dst) <- false
    | Some p ->
        if Queue.is_empty p.resp_q && Queue.is_empty p.req_q then
          t.in_active.((node * t.nnodes) + dst) <- false
        else begin
          Vec.set av !kept dst;
          incr kept
        end
  in
  let n = Vec.length av in
  for i = 0 to n - 1 do
    let dst = Vec.get av i in
    (match t.pairs.((node * t.nnodes) + dst) with
    | None -> ()
    | Some p -> drain_pair t p);
    keep_or_drop dst
  done;
  (* a thread woken inline above may have re-parked for new destinations,
     growing the vec past the snapshot [n]; those entries must survive the
     compaction (they are fresh — nothing to drain for them yet) *)
  for i = n to Vec.length av - 1 do
    keep_or_drop (Vec.get av i)
  done;
  Vec.truncate av !kept;
  t.hook_status node ~pending:t.queued.(node)

let set_hooks t ~post ~clock ~charge ~status =
  t.hook_post <- post;
  t.hook_clock <- clock;
  t.hook_charge <- charge;
  t.hook_status <- status;
  for node = 0 to t.nnodes - 1 do
    t.chores.(node) <- (fun () -> run_drain t node)
  done

let credit_return t ~src ~dst vnet =
  let ci = cidx t ~src ~dst vnet in
  t.credits.(ci) <- t.credits.(ci) + 1;
  if t.queued.(src) > 0 && not t.drain_posted.(src) then begin
    (* only the (src,dst) pair whose credit just returned can have become
       releasable; post a drain chore only when it actually is, so ample
       credits never schedule an extra event *)
    let releasable =
      match t.pairs.((src * t.nnodes) + dst) with
      | Some p -> pair_drainable t p
      | None -> false
    in
    if releasable then begin
      t.drain_posted.(src) <- true;
      t.hook_post src t.chores.(src)
    end
  end

(* --- deadlock probe ---------------------------------------------------- *)

(* Waits-for edges: src -> dst whenever src has parked traffic for dst that
   is not currently releasable (a releasable pair has a drain chore coming
   and is progress, not waiting).  A cycle means a ring of senders each
   stalled on credits only a stalled peer can return; the watchdog checks
   this probe only across a window with zero delivered progress, so a
   transient cycle that in-flight credits are about to break is not
   reported. *)
let blocked_edge t src dst =
  match t.pairs.((src * t.nnodes) + dst) with
  | None -> false
  | Some p ->
      (not (Queue.is_empty p.resp_q && Queue.is_empty p.req_q))
      && not (pair_drainable t p)

let deadlock t =
  let color = Array.make t.nnodes 0 in
  let parent = Array.make t.nnodes (-1) in
  let cycle = ref None in
  let rec dfs u =
    color.(u) <- 1;
    Vec.iter
      (fun v ->
        if !cycle = None && blocked_edge t u v then
          if color.(v) = 0 then begin
            parent.(v) <- u;
            dfs v
          end
          else if color.(v) = 1 then begin
            let rec back acc w =
              let acc = w :: acc in
              if w = v then acc else back acc parent.(w)
            in
            cycle := Some (back [ v ] u)
          end)
      t.active.(u);
    color.(u) <- 2
  in
  for u = 0 to t.nnodes - 1 do
    if color.(u) = 0 && !cycle = None then dfs u
  done;
  match !cycle with
  | None -> None
  | Some nodes ->
      Some
        (Printf.sprintf "waits-for cycle %s (%s)"
           (String.concat " -> " (List.map string_of_int nodes))
           (String.concat "; "
              (List.filter_map
                 (fun src ->
                   if t.queued.(src) > 0 then Some (describe_node t src)
                   else None)
                 nodes)))
