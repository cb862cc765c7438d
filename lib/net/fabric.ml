module Stats = Tt_util.Stats

(* In-flight messages are held in a second int-keyed heap, keyed by
   (delivery time, send seq), and one preallocated delivery closure is
   scheduled per send; the hot path allocates nothing.  A delivery event
   pops the smallest inflight entry, so the k-th delivery event to fire at
   a cycle delivers the k-th message sent for that cycle, whatever order
   the engine fires same-time events in.  Without a tie-break perturber
   this matches a fresh closure per send.  Under torture salts it does
   not: salts reorder same-time events, and per-send closures would let
   them reorder one pair's messages.  Here same-time deliveries keep send
   order, so the per-pair FIFO the protocols rely on survives every
   perturbation. *)

let seq_bits = 20

let seq_limit = 1 lsl seq_bits

(* A message from a node to itself short-circuits the network (§5.1). *)
let local_latency = 1

(* Cap on messages in flight: a pure safety net under the Flow credit
   layer, and the bound that keeps [rebase_inflight] within [seq_limit]. *)
let capacity = seq_limit

type t = {
  engine : Tt_sim.Engine.t;
  node_count : int;
  net_latency : int;
  words_per_cycle : int option;
  port_free : int array; (* contention model: next free time per dst port *)
  receivers : (Message.t -> unit) option array;
  inflight : Message.t Tt_util.Intheap.t;
  mutable fseq : int;
  mutable deliver_fn : unit -> unit; (* preallocated; set once in [create] *)
  counters : Stats.t;
  (* per-message counters, pre-resolved so [send] never builds key strings *)
  c_msgs_request : Stats.counter;
  c_msgs_response : Stats.counter;
  c_words_request : Stats.counter;
  c_words_response : Stats.counter;
  c_msgs_local : Stats.counter;
  c_port_wait : Stats.counter;
}

let deliver t =
  let msg = Tt_util.Intheap.pop_exn t.inflight in
  if Tt_util.Intheap.is_empty t.inflight then t.fseq <- 0;
  match t.receivers.(msg.Message.dst) with
  | Some receive -> receive msg
  | None ->
      (* this fires inside the delivery event, long after the send call
         site — name the message so the offender is diagnosable *)
      invalid_arg
        (Printf.sprintf
           "Fabric: node %d has no receiver (message src=%d dst=%d \
            handler=%d vnet=%s)"
           msg.Message.dst msg.Message.src msg.Message.dst msg.Message.handler
           (Message.vnet_to_string msg.Message.vnet))

let create engine ~nodes ~latency ?words_per_cycle () =
  if nodes <= 0 then invalid_arg "Fabric.create";
  (match words_per_cycle with
  | Some w when w <= 0 -> invalid_arg "Fabric.create: bad bandwidth"
  | Some _ | None -> ());
  let counters = Stats.create "network" in
  let t =
    { engine; node_count = nodes; net_latency = latency;
      words_per_cycle; port_free = Array.make nodes 0;
      receivers = Array.make nodes None;
      inflight = Tt_util.Intheap.create ~capacity:64 ~dummy:Message.dummy ();
      fseq = 0;
      deliver_fn = (fun () -> ());
      counters;
      c_msgs_request = Stats.counter counters "msgs.request";
      c_msgs_response = Stats.counter counters "msgs.response";
      c_words_request = Stats.counter counters "words.request";
      c_words_response = Stats.counter counters "words.response";
      c_msgs_local = Stats.counter counters "msgs.local";
      c_port_wait = Stats.counter counters "port_wait_cycles" }
  in
  t.deliver_fn <- (fun () -> deliver t);
  t

let nodes t = t.node_count

let latency t = t.net_latency

let words_per_cycle t = t.words_per_cycle

let stats t = t.counters

let set_receiver t ~node f =
  if node < 0 || node >= t.node_count then invalid_arg "Fabric.set_receiver";
  t.receivers.(node) <- Some f

(* Renumber inflight entries 0..n-1 in drain order (see Engine.rebase). *)
let rebase_inflight t =
  let n = Tt_util.Intheap.length t.inflight in
  let keys = Array.make n 0 and msgs = Array.make n Message.dummy in
  for i = 0 to n - 1 do
    keys.(i) <- Tt_util.Intheap.min_key t.inflight;
    msgs.(i) <- Tt_util.Intheap.pop_exn t.inflight
  done;
  for i = 0 to n - 1 do
    Tt_util.Intheap.push t.inflight
      (((keys.(i) asr seq_bits) lsl seq_bits) lor i)
      msgs.(i)
  done;
  t.fseq <- n

let schedule_delivery t deliver_at msg =
  if t.fseq >= seq_limit then rebase_inflight t;
  (* schedule first: if [Engine.at] rejects the time we must not leave a
     stale inflight entry behind *)
  Tt_sim.Engine.at t.engine deliver_at t.deliver_fn;
  Tt_util.Intheap.push t.inflight ((deliver_at lsl seq_bits) lor t.fseq) msg;
  t.fseq <- t.fseq + 1

let send t ~at msg =
  (* validate both endpoints up front: a bad [src] would otherwise index
     [port_free] out of bounds in bandwidth mode and pass silently in
     latency mode *)
  if msg.Message.src < 0 || msg.Message.src >= t.node_count then
    invalid_arg
      (Printf.sprintf "Fabric.send: bad source %d (fabric has %d nodes)"
         msg.Message.src t.node_count);
  if msg.Message.dst < 0 || msg.Message.dst >= t.node_count then
    invalid_arg
      (Printf.sprintf "Fabric.send: bad destination %d (fabric has %d nodes)"
         msg.Message.dst t.node_count);
  if Tt_util.Intheap.length t.inflight >= capacity then
    raise
      (Overload.Overload
         (Printf.sprintf
            "Fabric: in-flight buffer full (%d messages, capacity %d) \
             sending src=%d dst=%d vnet=%s at t=%d"
            (Tt_util.Intheap.length t.inflight)
            capacity msg.Message.src msg.Message.dst
            (Message.vnet_to_string msg.Message.vnet)
            at));
  (match msg.Message.vnet with
  | Message.Request ->
      Stats.Counter.incr t.c_msgs_request;
      Stats.Counter.add t.c_words_request (Message.words msg)
  | Message.Response ->
      Stats.Counter.incr t.c_msgs_response;
      Stats.Counter.add t.c_words_response (Message.words msg));
  let lat =
    if msg.Message.src = msg.Message.dst then begin
      Stats.Counter.incr t.c_msgs_local;
      local_latency
    end
    else t.net_latency
  in
  let deliver_at =
    match t.words_per_cycle with
    | None -> max (at + lat) (Tt_sim.Engine.now t.engine)
    | Some w ->
        (* serialize through the sender's and the receiver's network port:
           a node streaming many replies (a hot home) queues on the way
           out, and a node bombarded with messages queues on the way in *)
        let occupancy = (Message.words msg + w - 1) / w in
        let depart = max at t.port_free.(msg.Message.src) in
        t.port_free.(msg.Message.src) <- depart + occupancy;
        let arrive =
          max (max (depart + lat) (Tt_sim.Engine.now t.engine))
            t.port_free.(msg.Message.dst)
        in
        t.port_free.(msg.Message.dst) <- arrive + occupancy;
        let waited = (depart - at) + (arrive - (depart + lat)) in
        if waited > 0 then Stats.Counter.add t.c_port_wait waited;
        arrive + occupancy
  in
  schedule_delivery t deliver_at msg
