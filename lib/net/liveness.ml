module Stats = Tt_util.Stats
module Engine = Tt_sim.Engine

type status = Alive | Suspected | Dead

type t = {
  engine : Engine.t;
  net : Reliable.t;
  nnodes : int;
  period : int;
  lease_budget : int;
  (* last cycle at which any node heard a heartbeat from peer i.  The
     out-of-band channel is PRNG-exempt and the fabric's latency is
     constant, so every live observer hears every heartbeat at the same
     cycle: the per-observer matrices of a real gossip protocol collapse
     into one agreed row, and the verdict below is system-wide and
     deterministic by construction rather than by quorum. *)
  last_heard : int array;
  statuses : status array;
  mutable on_dead : int -> unit;
  mutable on_alive : int -> unit;
  mutable stopped : bool;
  mutable epoch : int;  (* bumped by [stop]; stale loop events check it *)
  counters : Stats.t;
  c_heartbeats : Stats.counter;
  c_deaths : Stats.counter;
  c_revivals : Stats.counter;
}

let heartbeat t ~node =
  let now = Engine.now t.engine in
  for peer = 0 to t.nnodes - 1 do
    if peer <> node then begin
      Stats.Counter.incr t.c_heartbeats;
      let m =
        Message.make ~src:node ~dst:peer ~vnet:Message.Response
          ~handler:Reliable.liveness_handler ~args:[||] ~data:Bytes.empty
      in
      Reliable.send_oob t.net ~at:now m
    end
  done

let on_heartbeat t msg =
  let peer = msg.Message.src in
  t.last_heard.(peer) <- Engine.now t.engine;
  match t.statuses.(peer) with
  | Alive -> ()
  | Suspected -> t.statuses.(peer) <- Alive
  | Dead ->
      (* a declared-dead node speaking again is a rejoin: flip the verdict
         first so the revival hook sees the new world *)
      t.statuses.(peer) <- Alive;
      Stats.Counter.incr t.c_revivals;
      t.on_alive peer

let monitor t =
  let now = Engine.now t.engine in
  let lease = t.period * t.lease_budget in
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

let create ?period ?(lease_budget = 4) engine net =
  (match Reliable.policy net with
  | Reliable.Flaky _ -> ()
  | Reliable.Perfect ->
      invalid_arg
        "Liveness.create: needs a Flaky transport (a perfect fabric has \
         nothing to detect)");
  if lease_budget < 2 then invalid_arg "Liveness.create: lease budget < 2";
  let lat = Reliable.latency net in
  let period =
    match period with
    | Some p -> if p <= 0 then invalid_arg "Liveness.create: period <= 0" else p
    | None -> 32 * lat
  in
  let nnodes = Reliable.nodes net in
  let counters = Stats.create "liveness" in
  let now = Engine.now engine in
  let t =
    {
      engine;
      net;
      nnodes;
      period;
      lease_budget;
      last_heard = Array.make nnodes now;
      statuses = Array.make nnodes Alive;
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
  Reliable.set_liveness_receiver net (fun msg -> on_heartbeat t msg);
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
      monitor t;
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
