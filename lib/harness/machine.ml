module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Stats = Tt_util.Stats
module Typhoon = Tt_typhoon.System
module Dirnnb = Tt_dirnnb.System
module Stache = Tt_stache.Stache

type point = Pre_barrier | Post_barrier | Pre_release

type recovery = {
  set_is_dead : (int -> bool) -> unit;
  set_on_dirty : (vpage:int -> unit) option -> unit;
  noop_handler : int;
  snapshot_page : vpage:int -> Bytes.t option;
  on_node_death :
    dead:int -> new_home:int -> restore:(vpage:int -> Bytes.t option) -> unit;
  on_node_rejoin : node:int -> unit;
}

type t = {
  label : string;
  engine : Engine.t;
  mparams : Params.t;
  net : Tt_net.Reliable.t;
  read : node:int -> Thread.t -> int -> float;
  write : node:int -> Thread.t -> int -> float -> unit;
  read_int : node:int -> Thread.t -> int -> int;
  write_int : node:int -> Thread.t -> int -> int -> unit;
  alloc : node:int -> Thread.t -> ?home:int -> int -> int;
  mprefetch : node:int -> Thread.t -> int -> unit;
  node_stats : int -> Stats.t;
  merged_stats : unit -> Stats.t;
  check_invariants : unit -> (unit, string) result;
  (* watchdog probes: delivered-work progress counter, queue-occupancy
     renderer, and waits-for-graph deadlock check *)
  delivered : unit -> int;
  queues : unit -> string;
  deadlock : unit -> string option;
  hooks : (string, node:int -> Thread.t -> unit) Hashtbl.t;
  special_allocs :
    (string, node:int -> Thread.t -> ?home:int -> int -> int) Hashtbl.t;
  (* the synchronization hook chain, called by Run's environment at every
     barrier and lock release (see [point]); a no-op unless a protocol or
     recovery layer extends it with [add_sync] *)
  mutable sync : point -> proc:int -> Thread.t -> unit;
  (* liveness census for watchdog diagnostics, None outside recovery runs *)
  mutable liveness : (unit -> string) option;
  recovery : recovery option;
}

let no_sync _ ~proc:_ _ = ()

let add_sync m f =
  let prev = m.sync in
  m.sync <- (fun point ~proc th -> prev point ~proc th; f point ~proc th)

let typhoon_stache_full ?reliability params =
  let engine = Engine.create () in
  let sys = Typhoon.create ?reliability engine params in
  let stache = Stache.install sys in
  let machine =
    {
      label = "typhoon/stache";
      engine;
      mparams = params;
      net = Typhoon.net sys;
      read = (fun ~node th a -> Typhoon.cpu_read_f64 sys ~node th a);
      write = (fun ~node th a v -> Typhoon.cpu_write_f64 sys ~node th a v);
      read_int = (fun ~node th a -> Typhoon.cpu_read_int sys ~node th a);
      write_int = (fun ~node th a v -> Typhoon.cpu_write_int sys ~node th a v);
      alloc =
        (fun ~node th ?home bytes ->
          Stache.alloc stache ~th ~node ?home ~bytes ());
      mprefetch =
        (fun ~node th vaddr -> Stache.prefetch stache ~th ~node ~vaddr `Ro);
      node_stats = (fun node -> Typhoon.node_stats sys node);
      merged_stats =
        (fun () ->
          let out = Stats.create "typhoon/stache" in
          Stats.merge_into ~dst:out (Typhoon.merged_stats sys);
          Stats.merge_into ~dst:out (Stache.stats stache);
          out);
      check_invariants = (fun () -> Stache.check_invariants stache);
      delivered = (fun () -> Typhoon.delivered sys);
      queues = (fun () -> Typhoon.queue_summary sys);
      deadlock = (fun () -> Typhoon.deadlock_probe sys);
      hooks = Hashtbl.create 4;
      special_allocs = Hashtbl.create 4;
      sync = no_sync;
      liveness = None;
      recovery =
        Some
          {
            set_is_dead = Stache.set_is_dead stache;
            set_on_dirty = Typhoon.set_on_dirty sys;
            noop_handler = Stache.noop_handler stache;
            snapshot_page = Stache.snapshot_page stache;
            on_node_death = Stache.on_node_death stache;
            on_node_rejoin = Stache.on_node_rejoin stache;
          };
    }
  in
  machine, sys, stache

let typhoon_stache ?reliability params =
  let m, _, _ = typhoon_stache_full ?reliability params in
  m

let dirnnb_full ?reliability params =
  let engine = Engine.create () in
  let sys = Dirnnb.create ?reliability engine params in
  let machine =
    {
      label = "dirnnb";
      engine;
      mparams = params;
      net = Dirnnb.net sys;
      read = (fun ~node th a -> Dirnnb.cpu_read_f64 sys ~node th a);
      write = (fun ~node th a v -> Dirnnb.cpu_write_f64 sys ~node th a v);
      read_int = (fun ~node th a -> Dirnnb.cpu_read_int sys ~node th a);
      write_int = (fun ~node th a v -> Dirnnb.cpu_write_int sys ~node th a v);
      alloc =
        (fun ~node th ?home bytes -> Dirnnb.alloc sys ~th ~node ?home ~bytes ());
      mprefetch = (fun ~node:_ _th _vaddr -> ());
      node_stats = (fun node -> Dirnnb.node_stats sys node);
      merged_stats = (fun () -> Dirnnb.merged_stats sys);
      check_invariants = (fun () -> Dirnnb.check_invariants sys);
      delivered = (fun () -> Dirnnb.delivered sys);
      queues = (fun () -> Dirnnb.queue_summary sys);
      deadlock = (fun () -> None);
      hooks = Hashtbl.create 4;
      special_allocs = Hashtbl.create 4;
      sync = no_sync;
      liveness = None;
      recovery =
        Some
          {
            set_is_dead = Dirnnb.set_is_dead sys;
            set_on_dirty = Dirnnb.set_on_dirty sys;
            noop_handler = Dirnnb.noop_handler;
            snapshot_page = Dirnnb.snapshot_page sys;
            on_node_death = Dirnnb.on_node_death sys;
            on_node_rejoin = Dirnnb.on_node_rejoin sys;
          };
    }
  in
  machine, sys

let dirnnb ?reliability params =
  let m, _ = dirnnb_full ?reliability params in
  m

let typhoon_em3d ?reliability params =
  let machine, sys, stache = typhoon_stache_full ?reliability params in
  let proto = Tt_custom.Em3d_proto.install sys stache in
  let machine =
    { machine with
      label = "typhoon/update";
      recovery = None;
      merged_stats =
        (fun () ->
          let out = machine.merged_stats () in
          Stats.merge_into ~dst:out (Tt_custom.Em3d_proto.stats proto);
          out) }
  in
  List.iter
    (fun kind ->
      Hashtbl.replace machine.hooks ("em3d.sync:" ^ kind) (fun ~node th ->
          Tt_custom.Em3d_proto.flush_and_wait proto ~th ~node ~kind);
      Hashtbl.replace machine.special_allocs ("em3d:" ^ kind)
        (fun ~node th ?home bytes ->
          Tt_custom.Em3d_proto.alloc proto ~th ~node ~kind ?home ~bytes ()))
    [ "e"; "h" ];
  machine

module Proto = Tt_custom.Proto

let typhoon_zoo_full ?reliability ~policy params =
  let machine, sys, stache = typhoon_stache_full ?reliability params in
  let proto = Proto.install sys stache in
  let machine =
    { machine with
      label = "typhoon/" ^ Proto.name_of_pol policy;
      recovery = None;
      alloc =
        (fun ~node th ?home bytes ->
          (* page-aligned so adopted pages never share with other data *)
          let vaddr =
            Stache.alloc stache ~th ~node ?home ~align:Tt_mem.Addr.page_size
              ~bytes ()
          in
          Proto.adopt proto ~th ~node ~vaddr ~bytes policy;
          vaddr);
      merged_stats =
        (fun () ->
          let out = machine.merged_stats () in
          Stats.merge_into ~dst:out (Proto.stats proto);
          out) }
  in
  add_sync machine (fun point ~proc th ->
      match point with
      | Pre_barrier | Pre_release -> Proto.flush_release proto ~th ~node:proc
      | Post_barrier -> ());
  machine, sys, stache, proto

let typhoon_zoo ?reliability ~policy params =
  let m, _, _, _ = typhoon_zoo_full ?reliability ~policy params in
  m

let typhoon_adaptive_full ?reliability params =
  let machine, sys, stache = typhoon_stache_full ?reliability params in
  let proto = Proto.install sys stache in
  let adapt = Tt_custom.Adaptive.install sys stache proto in
  let machine =
    { machine with
      label = "typhoon/adaptive";
      recovery = None;
      alloc =
        (fun ~node th ?home bytes ->
          (* page-aligned like the static zoo machines, so a retyped page
             never drags unrelated data (or another allocation's straddling
             block) under its policy *)
          Stache.alloc stache ~th ~node ?home ~align:Tt_mem.Addr.page_size
            ~bytes ());
      merged_stats =
        (fun () ->
          let out = machine.merged_stats () in
          Stats.merge_into ~dst:out (Proto.stats proto);
          Stats.merge_into ~dst:out (Tt_custom.Adaptive.stats adapt);
          out) }
  in
  (* pages start on the default protocol.  Before a barrier the hook
     flushes this node's un-flushed zoo state, then lets the adaptive layer
     reclassify and switch the pages it homes.  After the barrier comes a
     second decision point: remote fetches served by this node's NP while
     its CPU sat waiting (evidence that landed after the pre-barrier pass)
     are classified now instead of a whole phase later. *)
  add_sync machine (fun point ~proc th ->
      match point with
      | Pre_barrier ->
          Proto.flush_release proto ~th ~node:proc;
          Tt_custom.Adaptive.on_sync adapt ~node:proc th
      | Post_barrier -> Tt_custom.Adaptive.on_sync adapt ~node:proc th
      | Pre_release ->
          Proto.flush_release proto ~th ~node:proc;
          Tt_custom.Adaptive.on_release adapt ~node:proc th);
  machine, sys, stache, proto, adapt

let typhoon_adaptive ?reliability params =
  let m, _, _, _, _ = typhoon_adaptive_full ?reliability params in
  m

let names =
  [ "dirnnb"; "stache"; "update"; "migratory"; "prodcons"; "widerep";
    "delayed"; "adaptive" ]

let of_name ?reliability name params =
  match name with
  | "dirnnb" -> dirnnb ?reliability params
  | "stache" -> typhoon_stache ?reliability params
  | "update" -> typhoon_em3d ?reliability params
  | "adaptive" -> typhoon_adaptive ?reliability params
  | "migratory" | "prodcons" | "widerep" | "delayed" ->
      typhoon_zoo ?reliability ~policy:(Proto.pol_of_name name) params
  | other ->
      invalid_arg
        (Printf.sprintf "Machine.of_name: unknown machine %S (valid: %s)"
           other (String.concat ", " names))

let recoverable () =
  let params = { Params.default with Params.nodes = 1 } in
  List.filter (fun name -> (of_name name params).recovery <> None) names
