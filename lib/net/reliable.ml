module Stats = Tt_util.Stats
module Engine = Tt_sim.Engine
module Inttbl = Tt_util.Inttbl

type policy = Perfect | Flaky of Faults.config

exception Link_failed of string

exception Peer_dead of string

let ack_handler = -1

(* Sender-side state for one (owner, peer) pair: the owner stamps every
   outgoing message with the next sequence number and keeps it queued until
   the peer's cumulative ack covers it. *)
type chan = {
  ch_src : int;
  ch_dst : int;
  mutable next_seq : int;
  unacked : Message.t Queue.t;
  mutable retries : int;  (* consecutive timeouts without ack progress *)
  mutable rto : int;
  mutable timer_gen : int;  (* engine events can't be cancelled; stale
                               timer firings compare against this *)
  mutable timer_armed : bool;
  mutable parked : bool;  (* peer declared dead (or we crashed): hold the
                             unacked queue, stop the retransmit clock *)
}

(* Receiver-side state for one (peer, owner) pair: in-order delivery point
   plus a bounded reassembly window for out-of-order arrivals. *)
type rchan = {
  mutable expected : int;
  ooo : Message.t Inttbl.t;
  mutable last_acked : int;
  mutable need_ack : bool;
  mutable ack_gen : int;
  mutable ack_armed : bool;
}

type flaky = {
  engine : Engine.t;
  fabric : Fabric.t;
  faults : Faults.t;
  nnodes : int;
  base_rto : int;
  rto_cap : int;
  max_retries : int;
  ack_delay : int;
  window : int;
  senders : chan option array;  (* src * nnodes + dst *)
  rstates : rchan option array; (* src * nnodes + dst, held at dst *)
  apps : (Message.t -> unit) option array;
  (* liveness wiring: [is_dead] is the user-level protocol's verdict
     (default: nobody is ever dead — bit-identical to the pre-liveness
     code); [death_notice] converts a dead-peer encounter into a callback
     instead of a [Peer_dead] raise. *)
  mutable is_dead : int -> bool;
  mutable death_notice : (src:int -> dst:int -> unit) option;
  c_data_sent : Stats.counter;
  c_retransmits : Stats.counter;
  c_acks_sent : Stats.counter;
  c_dup_dropped : Stats.counter;
  c_window_drops : Stats.counter;
  c_rejoin_retransmits : Stats.counter;
}

type t = {
  fabric : Fabric.t;
  policy : policy;
  counters : Stats.t;
  flaky : flaky option;
}

let sender st ~src ~dst =
  let i = (src * st.nnodes) + dst in
  match st.senders.(i) with
  | Some ch -> ch
  | None ->
      let ch =
        { ch_src = src; ch_dst = dst; next_seq = 0; unacked = Queue.create ();
          retries = 0; rto = st.base_rto; timer_gen = 0; timer_armed = false;
          parked = false }
      in
      st.senders.(i) <- Some ch;
      ch

let rstate st ~src ~dst =
  let i = (src * st.nnodes) + dst in
  match st.rstates.(i) with
  | Some rc -> rc
  | None ->
      let rc =
        { expected = 0; ooo = Inttbl.create 16; last_acked = -1;
          need_ack = false; ack_gen = 0; ack_armed = false }
      in
      st.rstates.(i) <- Some rc;
      rc

let rec arm_retx st ch =
  ch.timer_armed <- true;
  ch.timer_gen <- ch.timer_gen + 1;
  let gen = ch.timer_gen in
  Engine.after st.engine ch.rto (fun () -> on_retx_timer st ch gen)

(* Liveness declared the destination dead: stop the retransmit clock and
   keep the unacked queue (a rejoin is a healed partition — the queue is
   replayed by [on_peer_alive]).  From here on this channel contributes
   nothing to [reliable.retransmits], so a dead peer can no longer burn the
   watchdog's retransmit budget.  Without a recovery layer listening, the
   verdict surfaces immediately as [Peer_dead] — the prompt notification
   that replaces a [max_retries]-long retransmission storm. *)
and park_dead st ch =
  ch.parked <- true;
  ch.timer_armed <- false;
  ch.timer_gen <- ch.timer_gen + 1;
  ch.retries <- 0;
  match st.death_notice with
  | Some f -> f ~src:ch.ch_src ~dst:ch.ch_dst
  | None ->
      raise
        (Peer_dead
           (Printf.sprintf
              "reliable: peer %d declared dead by liveness (link %d->%d, %d \
               unacked messages held)"
              ch.ch_dst ch.ch_src ch.ch_dst (Queue.length ch.unacked)))

and on_retx_timer st ch gen =
  if gen <> ch.timer_gen then ()
  else if Queue.is_empty ch.unacked then ch.timer_armed <- false
  else if st.is_dead ch.ch_dst then park_dead st ch
  else if
    Faults.is_down st.faults ~node:ch.ch_src ~at:(Engine.now st.engine)
  then begin
    (* we are the crashed node: nothing leaves the NIC, so resending is
       pointless and these rounds must not burn the retry budget.  Keep
       the timer ticking (with backoff) so a sub-lease outage resumes
       retransmission by itself once the node reboots — there is no
       verdict, hence no [on_peer_alive] replay, in that case.  If the
       outage did outlast the lease, the death-verdict scrub has already
       rewritten this queue to no-ops, so a post-reboot resend racing the
       revival verdict replays harmless no-ops in sequence order. *)
    ch.retries <- 0;
    ch.rto <- min (2 * ch.rto) st.rto_cap;
    arm_retx st ch
  end
  else begin
    ch.retries <- ch.retries + 1;
    if ch.retries > st.max_retries then
      raise
        (Link_failed
           (Printf.sprintf
              "reliable: link %d->%d gave up after %d retransmit rounds \
               (first unacked seq %d, %d queued, rto %d cycles)"
              ch.ch_src ch.ch_dst ch.retries
              (Queue.peek ch.unacked).Message.seq
              (Queue.length ch.unacked) ch.rto));
    let now = Engine.now st.engine in
    Queue.iter
      (fun m ->
        Stats.Counter.incr st.c_retransmits;
        Faults.send st.faults ~at:now m)
      ch.unacked;
    ch.rto <- min (2 * ch.rto) st.rto_cap;
    arm_retx st ch
  end

(* Cumulative ack from [peer] for the [owner]->[peer] channel. *)
let process_ack st ~owner ~peer ackno =
  match st.senders.((owner * st.nnodes) + peer) with
  | None -> ()
  | Some ch ->
      let progressed = ref false in
      while
        (not (Queue.is_empty ch.unacked))
        && (Queue.peek ch.unacked).Message.seq <= ackno
      do
        ignore (Queue.pop ch.unacked);
        progressed := true
      done;
      if !progressed then begin
        ch.retries <- 0;
        ch.rto <- st.base_rto;
        ch.timer_gen <- ch.timer_gen + 1;
        if Queue.is_empty ch.unacked || ch.parked then
          ch.timer_armed <- false
        else arm_retx st ch
      end

let rec arm_ack st ~src ~dst rc =
  if not rc.ack_armed then begin
    rc.ack_armed <- true;
    rc.ack_gen <- rc.ack_gen + 1;
    let gen = rc.ack_gen in
    Engine.after st.engine st.ack_delay (fun () -> on_ack_timer st ~src ~dst rc gen)
  end

and on_ack_timer st ~src ~dst rc gen =
  if gen <> rc.ack_gen then ()
  else begin
    rc.ack_armed <- false;
    (* a piggybacked ack may have covered us in the meantime *)
    if rc.need_ack || rc.expected - 1 > rc.last_acked then begin
      let ackno = rc.expected - 1 in
      rc.last_acked <- ackno;
      rc.need_ack <- false;
      Stats.Counter.incr st.c_acks_sent;
      (* standalone acks ride the response network unsequenced: they carry
         no protocol payload, so ordering and delivery are best-effort
         (a lost ack is repaired by the sender's retransmission) *)
      let m =
        Message.make ~src:dst ~dst:src ~vnet:Message.Response
          ~handler:ack_handler ~args:[||] ~data:Bytes.empty
      in
      m.Message.ack <- ackno;
      Faults.send st.faults ~at:(Engine.now st.engine) m
    end
  end

let deliver st msg =
  match st.apps.(msg.Message.dst) with
  | Some f -> f msg
  | None ->
      invalid_arg
        (Printf.sprintf
           "Reliable: node %d has no receiver (message src=%d dst=%d \
            handler=%d)"
           msg.Message.dst msg.Message.src msg.Message.dst msg.Message.handler)

(* Each arriving instance is consumed here (ack-only, duplicate, window
   drop), handed to the application via [deliver], or parked in the
   reassembly table until the gap before it fills. *)
let on_wire st msg =
  let s = msg.Message.src and d = msg.Message.dst in
  (* a crashed destination's endpoint is deaf: the delivery vanishes before
     any transport state (acks, sequencing) can observe it *)
  if Faults.is_down st.faults ~node:d ~at:(Engine.now st.engine) then
    Faults.crash_drop st.faults
  else begin
  if msg.Message.ack >= 0 then process_ack st ~owner:d ~peer:s msg.Message.ack;
  if msg.Message.seq < 0 then begin
    (* unsequenced: standalone acks (consumed here) or local short-circuit
       traffic that bypassed the transport *)
    if msg.Message.handler = ack_handler then () else deliver st msg
  end
  else begin
    let rc = rstate st ~src:s ~dst:d in
    if msg.Message.seq < rc.expected then begin
      (* duplicate of something already delivered (retransmit or fault
         dup); suppress, but refresh the ack so the sender stops *)
      Stats.Counter.incr st.c_dup_dropped;
      rc.need_ack <- true;
      arm_ack st ~src:s ~dst:d rc
    end
    else if msg.Message.seq >= rc.expected + st.window then begin
      (* beyond the reassembly window: drop without acking; the sender's
         retransmission re-offers it once the window has advanced *)
      Stats.Counter.incr st.c_window_drops
    end
    else begin
      if msg.Message.seq = rc.expected then begin
        deliver st msg;
        rc.expected <- rc.expected + 1;
        let rec drain () =
          match Inttbl.find_opt rc.ooo rc.expected with
          | Some m ->
              Inttbl.remove rc.ooo rc.expected;
              deliver st m;
              rc.expected <- rc.expected + 1;
              drain ()
          | None -> ()
        in
        drain ()
      end
      else if Inttbl.mem rc.ooo msg.Message.seq then
        Stats.Counter.incr st.c_dup_dropped
      else Inttbl.replace rc.ooo msg.Message.seq msg;
      rc.need_ack <- true;
      arm_ack st ~src:s ~dst:d rc
    end
  end
  end

let flaky_send (st : flaky) ~at msg =
  let src = msg.Message.src and dst = msg.Message.dst in
  if src = dst then
    (* node-to-self messages short-circuit the network (§5.1) and are
       neither faulted nor sequenced *)
    Fabric.send st.fabric ~at msg
  else begin
    let ch = sender st ~src ~dst in
    (* piggyback our cumulative ack for the reverse direction *)
    let ack =
      match st.rstates.((dst * st.nnodes) + src) with
      | None -> -1
      | Some rc ->
          let ackno = rc.expected - 1 in
          if ackno > rc.last_acked then rc.last_acked <- ackno;
          rc.need_ack <- false;
          ackno
    in
    (* stamp the transport envelope in place: the caller has handed the
       message over, and nobody else can see it yet *)
    msg.Message.seq <- ch.next_seq;
    msg.Message.ack <- ack;
    ch.next_seq <- ch.next_seq + 1;
    (* the retransmission queue keeps the message until it is acked *)
    Queue.add msg ch.unacked;
    Stats.Counter.incr st.c_data_sent;
    if ch.parked then
      (* peer declared dead: hold for a possible rejoin, never wire it *)
      ()
    else if st.is_dead dst then park_dead st ch
    else begin
      if not ch.timer_armed then arm_retx st ch;
      Faults.send st.faults ~at msg
    end
  end

let create ?base_rto ?rto_cap ?(max_retries = 10) ?ack_delay ?(window = 512)
    engine fabric policy =
  let counters = Stats.create "reliable" in
  let flaky =
    match policy with
    | Perfect -> None
    | Flaky cfg ->
        let lat = Fabric.latency fabric in
        let base_rto =
          match base_rto with Some r -> r | None -> 24 * lat
        in
        let rto_cap =
          match rto_cap with Some r -> r | None -> 64 * base_rto
        in
        let ack_delay =
          match ack_delay with Some d -> d | None -> 2 * lat
        in
        if base_rto <= 0 || rto_cap < base_rto || max_retries < 1
           || ack_delay <= 0 || window < 1
        then invalid_arg "Reliable.create: bad transport parameters";
        let n = Fabric.nodes fabric in
        let st =
          {
            engine; fabric; faults = Faults.create cfg fabric; nnodes = n;
            base_rto; rto_cap; max_retries; ack_delay; window;
            senders = Array.make (n * n) None;
            rstates = Array.make (n * n) None;
            apps = Array.make n None;
            is_dead = (fun _ -> false);
            death_notice = None;
            c_data_sent = Stats.counter counters "reliable.data_sent";
            c_retransmits = Stats.counter counters "reliable.retransmits";
            c_acks_sent = Stats.counter counters "reliable.acks_sent";
            c_dup_dropped = Stats.counter counters "reliable.dup_dropped";
            c_window_drops = Stats.counter counters "reliable.window_drops";
            c_rejoin_retransmits =
              Stats.counter counters "reliable.rejoin_retransmits";
          }
        in
        for node = 0 to n - 1 do
          Fabric.set_receiver fabric ~node (fun msg -> on_wire st msg)
        done;
        Some st
  in
  { fabric; policy; counters; flaky }

let policy t = t.policy

let send t ~at msg =
  match t.flaky with
  | None -> Fabric.send t.fabric ~at msg
  | Some st -> flaky_send st ~at msg

let set_receiver t ~node f =
  match t.flaky with
  | None -> Fabric.set_receiver t.fabric ~node f
  | Some st ->
      if node < 0 || node >= st.nnodes then
        invalid_arg "Reliable.set_receiver";
      st.apps.(node) <- Some f

let set_liveness t ~is_dead =
  match t.flaky with
  | None -> invalid_arg "Reliable.set_liveness: Perfect transport"
  | Some st -> st.is_dead <- is_dead

let set_death_notice t f =
  match t.flaky with
  | None -> invalid_arg "Reliable.set_death_notice: Perfect transport"
  | Some st -> st.death_notice <- f

(* Called on the liveness verdict: every channel toward the dead node stops
   its retransmit clock (the queue is kept — see [park_dead]).  Channels
   with nothing outstanding are parked too, so traffic initiated after the
   verdict queues instead of timing out one [max_retries] round at a time. *)
let on_peer_death t ~node =
  match t.flaky with
  | None -> ()
  | Some st ->
      for src = 0 to st.nnodes - 1 do
        if src <> node then
          match st.senders.((src * st.nnodes) + node) with
          | Some ch when not ch.parked ->
              ch.parked <- true;
              ch.timer_armed <- false;
              ch.timer_gen <- ch.timer_gen + 1;
              ch.retries <- 0
          | _ -> ()
      done

(* Called when a dead node's heartbeats resume: unpark both directions —
   survivors' channels toward the rejoined node, and the rejoined node's
   own channels (parked when its timers found their source crashed).  Held
   queues are replayed immediately; the replays count under
   [reliable.rejoin_retransmits], never against the watchdog's
   [reliable.retransmits] budget. *)
let on_peer_alive t ~node =
  match t.flaky with
  | None -> ()
  | Some st ->
      let revive ch =
        if ch.parked then begin
          ch.parked <- false;
          ch.retries <- 0;
          ch.rto <- st.base_rto;
          if not (Queue.is_empty ch.unacked) then begin
            let now = Engine.now st.engine in
            Queue.iter
              (fun m ->
                Stats.Counter.incr st.c_rejoin_retransmits;
                Faults.send st.faults ~at:now m)
              ch.unacked;
            arm_retx st ch
          end
        end
      in
      for other = 0 to st.nnodes - 1 do
        if other <> node then begin
          (match st.senders.((other * st.nnodes) + node) with
          | Some ch -> revive ch
          | None -> ());
          match st.senders.((node * st.nnodes) + other) with
          | Some ch -> revive ch
          | None -> ()
        end
      done

(* Rewrite the handler id of every held message touching [node] — unacked
   queues in both directions plus reassembly-table residents — to [handler]
   (a recovery-registered no-op).  Sequence numbers are untouched, so the
   receiver's per-pair ordering stays intact when the queues are replayed
   after a rejoin: the stale protocol payloads are neutralized without
   tearing a hole in the sequence space.  Transport-internal unsequenced
   messages (acks; negative handler ids) are left alone.
   Returns the number of messages scrubbed. *)
let scrub_unacked t ~node ~handler =
  match t.flaky with
  | None -> 0
  | Some st ->
      if handler < 0 then invalid_arg "Reliable.scrub_unacked: bad handler";
      let n = ref 0 in
      let scrub m =
        if m.Message.handler >= 0 && m.Message.handler <> handler then begin
          m.Message.handler <- handler;
          incr n
        end
      in
      let scrub_chan = function
        | Some ch -> Queue.iter scrub ch.unacked
        | None -> ()
      in
      let scrub_ooo = function
        | Some rc -> Inttbl.iter (fun _ m -> scrub m) rc.ooo
        | None -> ()
      in
      for other = 0 to st.nnodes - 1 do
        if other <> node then begin
          scrub_chan st.senders.((other * st.nnodes) + node);
          scrub_chan st.senders.((node * st.nnodes) + other);
          scrub_ooo st.rstates.((other * st.nnodes) + node);
          scrub_ooo st.rstates.((node * st.nnodes) + other)
        end
      done;
      !n

let fabric t = t.fabric

let stats t = t.counters

let fault_stats t =
  match t.flaky with None -> None | Some st -> Some (Faults.stats st.faults)

let retransmits t =
  match t.flaky with
  | None -> 0
  | Some st -> Stats.Counter.get st.c_retransmits

let faults t =
  match t.flaky with None -> None | Some st -> Some st.faults
