module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Barrier = Tt_sim.Barrier
module Lock = Tt_sim.Lock
module Stats = Tt_util.Stats
module Env = Tt_app.Env

type result = {
  app_name : string;
  machine_label : string;
  cycles : int;
  proc_cycles : int array;
  run_stats : Stats.t;
}

exception Stuck of string

let make_env (machine : Machine.t) ~barrier ~locks ~proc th =
  (* The lock table is lazily populated on first acquire.  It is local to
     one [spmd] call and only that machine's fibers reach it, all on one
     domain, so it needs no mutex. *)
  let lock_of i =
    match Tt_util.Inttbl.find_opt locks i with
    | Some l -> l
    | None ->
        let l = Lock.create machine.Machine.engine () in
        Tt_util.Inttbl.replace locks i l;
        l
  in
  {
    Env.proc;
    nprocs = machine.Machine.mparams.Params.nodes;
    read = (fun a -> machine.Machine.read ~node:proc th a);
    write = (fun a v -> machine.Machine.write ~node:proc th a v);
    read_int = (fun a -> machine.Machine.read_int ~node:proc th a);
    write_int = (fun a v -> machine.Machine.write_int ~node:proc th a v);
    work =
      (fun n ->
        Thread.advance th n;
        Thread.maybe_yield th);
    prefetch = (fun vaddr -> machine.Machine.mprefetch ~node:proc th vaddr);
    barrier =
      (fun () ->
        machine.Machine.sync Machine.Pre_barrier ~proc th;
        Barrier.wait barrier th;
        machine.Machine.sync Machine.Post_barrier ~proc th);
    lock = (fun i -> Lock.acquire (lock_of i) th);
    unlock =
      (fun i ->
        machine.Machine.sync Machine.Pre_release ~proc th;
        Lock.release (lock_of i) th);
    alloc = (fun ?home bytes -> machine.Machine.alloc ~node:proc th ?home bytes);
    alloc_kind =
      (fun kind ?home bytes ->
        match Hashtbl.find_opt machine.Machine.special_allocs kind with
        | Some f -> f ~node:proc th ?home bytes
        | None -> machine.Machine.alloc ~node:proc th ?home bytes);
    hook =
      (fun name ->
        match Hashtbl.find_opt machine.Machine.hooks name with
        | Some f -> f ~node:proc th
        | None -> ());
    has_hook = (fun name -> Hashtbl.mem machine.Machine.hooks name);
  }

let spmd (machine : Machine.t) ~name ?(check = true) ?watchdog body =
  let nprocs = machine.Machine.mparams.Params.nodes in
  let barrier =
    Barrier.create machine.Machine.engine ~participants:nprocs
      ~latency:machine.Machine.mparams.Params.barrier_latency
  in
  let locks = Tt_util.Inttbl.create 16 in
  let threads =
    Array.init nprocs (fun proc ->
        let th =
          Thread.spawn machine.Machine.engine
            ~quantum:machine.Machine.mparams.Params.quantum
            ~name:(Printf.sprintf "%s.cpu%d" name proc)
            (fun th -> body (make_env machine ~barrier ~locks ~proc th))
        in
        (* per-node fast-path observability: every full fiber suspension
           vs every inline (elided) completion *)
        let ns = machine.Machine.node_stats proc in
        Thread.set_suspend_counters th
          ~taken:(Stats.counter ns "suspensions_taken")
          ~elided:(Stats.counter ns "suspensions_elided");
        th)
  in
  (match watchdog with
  | None -> Engine.run machine.Machine.engine
  | Some w ->
      Watchdog.drive w machine.Machine.engine
        ~progress:machine.Machine.delivered ~queues:machine.Machine.queues
        ~deadlock:machine.Machine.deadlock
        ?liveness:machine.Machine.liveness
        ~retransmits:(fun () ->
          Tt_net.Reliable.retransmits machine.Machine.net));
  Array.iteri
    (fun i th ->
      if not (Thread.finished th) then
        raise
          (Stuck
             (Printf.sprintf
                "%s on %s: processor %d never finished (blocked=%b, clock=%d)"
                name machine.Machine.label i (Thread.blocked th)
                (Thread.clock th))))
    threads;
  if check then begin
    match machine.Machine.check_invariants () with
    | Ok () -> ()
    | Error msg ->
        raise
          (Stuck
             (Printf.sprintf "%s on %s: invariant violation: %s" name
                machine.Machine.label msg))
  end;
  let proc_cycles = Array.map Thread.clock threads in
  {
    app_name = name;
    machine_label = machine.Machine.label;
    cycles = Array.fold_left max 0 proc_cycles;
    proc_cycles;
    run_stats = machine.Machine.merged_stats ();
  }

let verified ?watchdog machine (app : Catalog.app) =
  let r = spmd machine ~name:app.Catalog.app_name ?watchdog app.Catalog.body in
  (* the app's own pass checks the final data against its sequential
     oracle; it raises on the first mismatch *)
  ignore
    (spmd machine ~name:(app.Catalog.app_name ^ "-verify") ~check:false
       ?watchdog app.Catalog.verify);
  r

type measure = {
  cycles : int;
  msgs : int;
  switches : int;
  work_items : int;
  cpu_s : float;
}

let cell ~verify (app, machine, params) =
  let t0 = Sys.time () in
  let m = Machine.of_name machine params in
  let app = app ~nprocs:params.Params.nodes in
  let r =
    if verify then verified m app
    else spmd m ~name:app.Catalog.app_name app.Catalog.body
  in
  let get = Stats.get r.run_stats in
  {
    cycles = r.cycles;
    msgs = get "msgs.request" + get "msgs.response";
    switches = get "switches";
    work_items = app.Catalog.work_items;
    cpu_s = Sys.time () -. t0;
  }
