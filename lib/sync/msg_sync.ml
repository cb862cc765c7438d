module System = Tt_typhoon.System
module Np = Tt_typhoon.Np
module Thread = Tt_sim.Thread
module Message = Tt_net.Message
module Stats = Tt_util.Stats
module Vec = Tt_util.Vec

type counter = { c_home : int; c_id : int }

type barrier = { b_home : int; b_id : int; b_participants : int }

type counter_cell = { mutable value : int }

type barrier_cell = {
  mutable arrived : int;
  waiters : int Vec.t; (* nodes to release *)
}

(* one blocked CPU per node per primitive kind is enough for SPMD code *)
type node_state = {
  mutable fa_wake : (int -> unit) option;
  mutable bar_wake : (unit -> unit) option;
}

type t = {
  sys : System.t;
  counters : counter_cell Vec.t array; (* per home node *)
  barriers : barrier_cell Vec.t array;
  node_states : node_state array;
  counters_stats : Stats.t;
  mutable h_fa_req : int;
  mutable h_fa_resp : int;
  mutable h_bar_arrive : int;
  mutable h_bar_release : int;
}

let stats t = t.counters_stats

(* resume helper: align the CPU clock with the local NP before waking *)
let wake_cpu sys ~node th wake =
  Thread.set_clock th
    (max (Thread.clock th) (Np.clock (System.node_np sys node)));
  wake ()

let on_fa_req t (ep : Tempest.t) ~src ~args ~data:_ =
  let id = args.(0) and delta = args.(1) in
  let cell = Vec.get t.counters.(ep.Tempest.node) id in
  Stats.incr t.counters_stats "fetch_adds";
  ep.Tempest.charge 4;
  let old = cell.value in
  cell.value <- old + delta;
  ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_fa_resp
    ~args:[| old |] ~data:Bytes.empty

let on_fa_resp t (ep : Tempest.t) ~src:_ ~args ~data:_ =
  let node = ep.Tempest.node in
  ep.Tempest.charge 2;
  match t.node_states.(node).fa_wake with
  | Some wake ->
      t.node_states.(node).fa_wake <- None;
      wake args.(0)
  | None -> invalid_arg "Msg_sync: fetch-add response with no waiter"

let on_bar_arrive t (ep : Tempest.t) ~src ~args ~data:_ =
  let id = args.(0) in
  let cell = Vec.get t.barriers.(ep.Tempest.node) id in
  ep.Tempest.charge 4;
  cell.arrived <- cell.arrived + 1;
  Vec.push cell.waiters src;
  let participants = args.(1) in
  if cell.arrived = participants then begin
    Stats.incr t.counters_stats "barrier_episodes";
    (* release everybody; the cell resets for the next episode
       (sense reversal is implicit: a new episode cannot start before all
       waiters of this one were released, because they are blocked) *)
    let waiters = Vec.to_list cell.waiters
    and release = t.h_bar_release in
    cell.arrived <- 0;
    Vec.clear cell.waiters;
    List.iter
      (fun node ->
        ep.Tempest.send ~dst:node ~vnet:Message.Response ~handler:release
          ~args:[| id |] ~data:Bytes.empty)
      waiters
  end

let on_bar_release t (ep : Tempest.t) ~src:_ ~args:_ ~data:_ =
  let node = ep.Tempest.node in
  ep.Tempest.charge 2;
  match t.node_states.(node).bar_wake with
  | Some wake ->
      t.node_states.(node).bar_wake <- None;
      wake ()
  | None -> invalid_arg "Msg_sync: barrier release with no waiter"

let install sys =
  let n = System.nnodes sys in
  let t =
    {
      sys;
      counters = Array.init n (fun _ -> Vec.create ());
      barriers = Array.init n (fun _ -> Vec.create ());
      node_states = Array.init n (fun _ -> { fa_wake = None; bar_wake = None });
      counters_stats = Stats.create "msg_sync";
      h_fa_req = -1; h_fa_resp = -1; h_bar_arrive = -1; h_bar_release = -1;
    }
  in
  let tables = System.handlers sys in
  let reg f = Tempest.Handlers.register_message tables (f t) in
  t.h_fa_req <- reg on_fa_req;
  t.h_fa_resp <- reg on_fa_resp;
  t.h_bar_arrive <- reg on_bar_arrive;
  t.h_bar_release <- reg on_bar_release;
  t

let alloc_counter t ~th ~node ~home ~init =
  ignore node;
  Thread.advance th 5;
  let cells = t.counters.(home) in
  Vec.push cells { value = init };
  { c_home = home; c_id = Vec.length cells - 1 }

let fetch_add t ~th ~node counter delta =
  let ns = t.node_states.(node) in
  if ns.fa_wake <> None then
    invalid_arg "Msg_sync.fetch_add: already one outstanding on this node";
  let ep = System.endpoint t.sys node in
  System.with_cpu_context t.sys ~node th (fun () ->
      ep.Tempest.send ~dst:counter.c_home ~vnet:Message.Request
        ~handler:t.h_fa_req ~args:[| counter.c_id; delta |] ~data:Bytes.empty);
  Thread.await th (fun wake ->
      ns.fa_wake <- Some (fun v -> wake_cpu t.sys ~node th (fun () -> wake v)))

let alloc_barrier t ~th ~node ~home ~participants =
  ignore node;
  if participants <= 0 then invalid_arg "Msg_sync.alloc_barrier";
  Thread.advance th 5;
  let cells = t.barriers.(home) in
  Vec.push cells { arrived = 0; waiters = Vec.create () };
  { b_home = home; b_id = Vec.length cells - 1; b_participants = participants }

let barrier_wait t ~th ~node barrier =
  let ns = t.node_states.(node) in
  if ns.bar_wake <> None then
    invalid_arg "Msg_sync.barrier_wait: already waiting on this node";
  let ep = System.endpoint t.sys node in
  System.with_cpu_context t.sys ~node th (fun () ->
      ep.Tempest.send ~dst:barrier.b_home ~vnet:Message.Request
        ~handler:t.h_bar_arrive
        ~args:[| barrier.b_id; barrier.b_participants |]
        ~data:Bytes.empty);
  Thread.await_unit th (fun wake ->
      ns.bar_wake <- Some (fun () -> wake_cpu t.sys ~node th wake))
