module Stats = Tt_util.Stats
module Engine = Tt_sim.Engine

type status = Alive | Suspected | Dead

type t = {
  engine : Engine.t;
  faults : Faults.t;
  nnodes : int;
  latency : int;
  period : int;
  (* last cycle at which any node heard a heartbeat from peer i.  Fabric
     latency is constant and beats skip the fault PRNG, so every live
     observer hears a beat at the same cycle: the per-observer matrices of
     a real gossip protocol collapse into one agreed row, and the verdict
     below is system-wide and deterministic by construction rather than by
     quorum. *)
  last_heard : int array;
  statuses : status array;
  mutable arrivals : (unit -> unit) array;  (* preallocated, one per node *)
  mutable on_dead : int -> unit;
  mutable on_alive : int -> unit;
  mutable stopped : bool;
  mutable epoch : int;  (* bumped by [stop]; stale loop events check it *)
  counters : Stats.t;
  c_heartbeats : Stats.counter;
  c_deaths : Stats.counter;
  c_revivals : Stats.counter;
}

(* One beat is one event: it reaches every peer [latency] cycles later,
   all at the same cycle, so the n-1 point-to-point deliveries it stands
   for would fire back to back and only the first to reach a live peer
   could change any state.  A crashed sender's NIC swallows the beat at
   the source, and a crashed peer's endpoint at delivery, one
   [faults.crash_dropped] per lost copy. *)
let heartbeat t ~node =
  let now = Engine.now t.engine in
  Stats.Counter.add t.c_heartbeats (t.nnodes - 1);
  if Faults.is_down t.faults ~node ~at:now then
    for _ = 2 to t.nnodes do
      Faults.crash_drop t.faults
    done
  else Engine.at t.engine (now + t.latency) t.arrivals.(node)

let on_heartbeat t ~node =
  t.last_heard.(node) <- Engine.now t.engine;
  match t.statuses.(node) with
  | Alive -> ()
  | Suspected -> t.statuses.(node) <- Alive
  | Dead ->
      (* a declared-dead node speaking again is a rejoin: flip the verdict
         first so the revival hook sees the new world *)
      t.statuses.(node) <- Alive;
      Stats.Counter.incr t.c_revivals;
      t.on_alive node

(* [node]'s beat lands: heard if at least one peer's endpoint is up. *)
let arrive t ~node =
  let now = Engine.now t.engine in
  let heard = ref false in
  for peer = 0 to t.nnodes - 1 do
    if peer <> node then
      if Faults.is_down t.faults ~node:peer ~at:now then
        Faults.crash_drop t.faults
      else heard := true
  done;
  if !heard then on_heartbeat t ~node

(* a beat every 32 fabric latencies; a peer silent for four periods is
   dead *)
let period_of fabric = 32 * Fabric.latency fabric

let lease fabric = 4 * period_of fabric

let monitor t ~lease =
  let now = Engine.now t.engine in
  for peer = 0 to t.nnodes - 1 do
    let silent = now - t.last_heard.(peer) in
    match t.statuses.(peer) with
    | Dead -> ()
    | Alive | Suspected ->
        if silent > lease then begin
          t.statuses.(peer) <- Dead;
          Stats.Counter.incr t.c_deaths;
          t.on_dead peer
        end
        else if silent > lease / 2 then t.statuses.(peer) <- Suspected
        else t.statuses.(peer) <- Alive
  done

let create engine net =
  let faults =
    match Reliable.faults net with
    | Some f -> f
    | None ->
        invalid_arg
          "Liveness.create: needs a Flaky transport (a perfect fabric has \
           nothing to detect)"
  in
  let fabric = Reliable.fabric net in
  if Fabric.words_per_cycle fabric <> None then
    invalid_arg
      "Liveness.create: the fabric models link bandwidth (words_per_cycle); \
       port contention would give each observer its own arrival cycle, and \
       the agreed last-heard row needs one";
  let period = period_of fabric and lease = lease fabric in
  let nnodes = Fabric.nodes fabric in
  let counters = Stats.create "liveness" in
  let now = Engine.now engine in
  let t =
    {
      engine;
      faults;
      nnodes;
      latency = Fabric.latency fabric;
      period;
      last_heard = Array.make nnodes now;
      statuses = Array.make nnodes Alive;
      arrivals = [||];
      on_dead = (fun _ -> ());
      on_alive = (fun _ -> ());
      stopped = false;
      epoch = 0;
      counters;
      c_heartbeats = Stats.counter counters "liveness.heartbeats";
      c_deaths = Stats.counter counters "liveness.deaths";
      c_revivals = Stats.counter counters "liveness.revivals";
    }
  in
  t.arrivals <- Array.init nnodes (fun node () -> arrive t ~node);
  Reliable.set_liveness net ~is_dead:(fun node -> t.statuses.(node) = Dead);
  (* staggered per-node heartbeat loops plus one monitor loop; each event
     re-arms itself until [stop] bumps the epoch *)
  let rec beat_loop node epoch () =
    if (not t.stopped) && epoch = t.epoch then begin
      heartbeat t ~node;
      Engine.after engine t.period (beat_loop node epoch)
    end
  in
  let rec monitor_loop epoch () =
    if (not t.stopped) && epoch = t.epoch then begin
      monitor t ~lease;
      Engine.after engine t.period (monitor_loop epoch)
    end
  in
  for node = 0 to nnodes - 1 do
    Engine.after engine (1 + node) (beat_loop node t.epoch)
  done;
  Engine.after engine (t.period + (t.period / 2)) (monitor_loop t.epoch);
  t

let set_on_dead t f = t.on_dead <- f

let set_on_alive t f = t.on_alive <- f

let stop t =
  t.stopped <- true;
  t.epoch <- t.epoch + 1

let status t node = t.statuses.(node)

let is_dead t node = t.statuses.(node) = Dead

let period t = t.period

let lowest_live t =
  let rec go i =
    if i >= t.nnodes then
      invalid_arg "Liveness.lowest_live: every node is dead"
    else if t.statuses.(i) <> Dead then i
    else go (i + 1)
  in
  go 0

let deaths t = Stats.Counter.get t.c_deaths

let revivals t = Stats.Counter.get t.c_revivals

let stats t = t.counters

let summary t =
  let buf = Buffer.create 64 in
  let listed status label =
    let members =
      List.filter (fun n -> t.statuses.(n) = status)
        (List.init t.nnodes Fun.id)
    in
    if members <> [] then begin
      if Buffer.length buf > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf label;
      Buffer.add_string buf " [";
      Buffer.add_string buf
        (String.concat ";" (List.map string_of_int members));
      Buffer.add_string buf "]"
    end
  in
  let alive = Array.fold_left (fun n s -> if s = Alive then n + 1 else n) 0 t.statuses in
  Buffer.add_string buf (Printf.sprintf "%d/%d alive" alive t.nnodes);
  listed Suspected "suspected";
  listed Dead "dead";
  Buffer.contents buf
