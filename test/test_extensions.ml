(* Tests for the Tempest extensions beyond the paper's core evaluation:
   user-level synchronization (§2 footnote), nonbinding prefetch (§5.4's
   Busy tag) and explicit page migration (§7). *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module System = Tt_typhoon.System
module Stache = Tt_stache.Stache
module Msg_sync = Tt_sync.Msg_sync
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(nodes = 4) () =
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  let st = Stache.install sys () in
  (engine, sys, st)

let run_cpus engine bodies =
  let threads =
    Array.mapi
      (fun i body -> Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) body)
      bodies
  in
  Engine.run engine;
  Array.iteri
    (fun i th ->
      if not (Thread.finished th) then
        Alcotest.fail (Printf.sprintf "cpu%d did not finish" i))
    threads;
  threads

(* ---------------- Msg_sync ---------------- *)

let test_fetch_add_atomic () =
  let nodes = 8 in
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  let sync = Msg_sync.install sys in
  let counter = ref None in
  let per_proc = 25 in
  let seen = Array.make (nodes * per_proc) false in
  let bodies =
    Array.init nodes (fun node th ->
        if node = 0 then
          counter := Some (Msg_sync.alloc_counter sync ~th ~node ~home:2 ~init:0);
        Thread.yield th;
        Thread.advance th 100;
        Thread.yield th;
        let c = Option.get !counter in
        for _ = 1 to per_proc do
          let ticket = Msg_sync.fetch_add sync ~th ~node c 1 in
          check_bool "ticket in range" true
            (ticket >= 0 && ticket < nodes * per_proc);
          check_bool "ticket unique" false seen.(ticket);
          seen.(ticket) <- true
        done)
  in
  ignore (run_cpus engine (Array.map (fun b th -> b th) (Array.mapi (fun i b -> ignore i; b) bodies)));
  check_bool "all tickets issued" true (Array.for_all (fun x -> x) seen);
  check_int "fetch_adds counted" (nodes * per_proc)
    (Stats.get (Msg_sync.stats sync) "fetch_adds")

let test_msg_barrier_releases_everyone () =
  let nodes = 6 in
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  let sync = Msg_sync.install sys in
  let barrier = ref None in
  let arrived = ref 0 and released_when = Array.make nodes (-1) in
  let bodies =
    Array.init nodes (fun node th ->
        if node = 0 then
          barrier :=
            Some
              (Msg_sync.alloc_barrier sync ~th ~node ~home:0
                 ~participants:nodes);
        Thread.yield th;
        Thread.advance th (100 * (node + 1));
        Thread.yield th;
        let b = Option.get !barrier in
        for _round = 1 to 3 do
          incr arrived;
          let before = !arrived in
          Msg_sync.barrier_wait sync ~th ~node b;
          (* by release time, everyone must have arrived this round *)
          check_bool "no early release" true (before <= !arrived);
          released_when.(node) <- Thread.clock th
        done)
  in
  ignore (run_cpus engine (Array.map (fun b th -> b th) bodies));
  check_int "three episodes" 3
    (Stats.get (Msg_sync.stats sync) "barrier_episodes")

let test_msg_barrier_vs_hardware_cost () =
  (* the message barrier must cost more than the idealized hardware
     barrier, but stay the same order of magnitude *)
  let nodes = 8 in
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  let sync = Msg_sync.install sys in
  let hw = Tt_sim.Barrier.create engine ~participants:nodes ~latency:11 in
  let barrier = ref None in
  let msg_cost = ref 0 and hw_cost = ref 0 in
  let bodies =
    Array.init nodes (fun node th ->
        if node = 0 then
          barrier :=
            Some
              (Msg_sync.alloc_barrier sync ~th ~node ~home:0
                 ~participants:nodes);
        Thread.yield th;
        let b = Option.get !barrier in
        let c0 = Thread.clock th in
        Tt_sim.Barrier.wait hw th;
        if node = 0 then hw_cost := Thread.clock th - c0;
        let c1 = Thread.clock th in
        Msg_sync.barrier_wait sync ~th ~node b;
        if node = 0 then msg_cost := Thread.clock th - c1)
  in
  ignore (run_cpus engine (Array.map (fun b th -> b th) bodies));
  check_bool
    (Printf.sprintf "msg barrier (%d) costs more than hw (%d)" !msg_cost
       !hw_cost)
    true
    (!msg_cost > !hw_cost);
  check_bool "but within ~40x" true (!msg_cost < 40 * max 1 !hw_cost)

(* ---------------- Prefetch ---------------- *)

let test_prefetch_hides_latency () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  let cold = ref 0 and warm = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:128 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        System.cpu_write_f64 sys ~node:0 th (!va + 64) 2.0;
        Thread.yield th);
      (fun th ->
        Thread.advance th 3000;
        Thread.yield th;
        (* block 0: plain demand fetch *)
        let c0 = Thread.clock th in
        ignore (System.cpu_read_f64 sys ~node:1 th !va);
        cold := Thread.clock th - c0;
        (* block 2: prefetch, compute a while, then read *)
        Stache.prefetch st ~th ~node:1 ~vaddr:(!va + 64) `Ro;
        Thread.advance th 500;
        Thread.yield th;
        let c1 = Thread.clock th in
        Alcotest.(check (float 0.0)) "prefetched value" 2.0
          (System.cpu_read_f64 sys ~node:1 th (!va + 64));
        warm := Thread.clock th - c1);
      (fun _ -> ()); (fun _ -> ());
    |] |> ignore;
  check_int "one prefetch issued" 1 (Stats.get (Stache.stats st) "prefetch_issued");
  check_int "prefetch completed without a fault" 1
    (Stats.get (Stache.stats st) "prefetch_completed");
  check_bool
    (Printf.sprintf "prefetched access (%d) much cheaper than cold (%d)" !warm
       !cold)
    true
    (!warm * 2 < !cold)

let test_prefetch_raced_by_demand_access () =
  (* the CPU touches the block before the prefetch data returns: it must
     simply join the outstanding request *)
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 7.5;
        Thread.yield th);
      (fun th ->
        Thread.advance th 3000;
        Thread.yield th;
        (* map the page first via a touch of... the same block would defeat
           the test; instead prefetch triggers only on mapped pages, so
           fault the page in via the block itself, then invalidate happens
           on home write. Simpler: demand-read once, let home reclaim it. *)
        ignore (System.cpu_read_f64 sys ~node:1 th !va);
        Thread.yield th);
      (fun th ->
        (* node 2 takes the block exclusively, invalidating node 1 *)
        Thread.advance th 9000;
        Thread.yield th;
        System.cpu_write_f64 sys ~node:2 th !va 9.5;
        Thread.yield th);
      (fun th ->
        ignore th);
    |] |> ignore;
  (* now node 1's copy is Invalid on a mapped page: prefetch then race *)
  let engine2 = Engine.create () in
  ignore engine2;
  (* second phase on the same system: prefetch and immediately read *)
  let e2 = System.engine sys in
  let th =
    Thread.spawn e2 ~name:"racer" (fun th ->
        Stache.prefetch st ~th ~node:1 ~vaddr:!va `Ro;
        (* no pause: the read faults while the prefetch is in flight *)
        Alcotest.(check (float 0.0)) "joined request sees fresh data" 9.5
          (System.cpu_read_f64 sys ~node:1 th !va))
  in
  Engine.run e2;
  check_bool "racer finished" true (Thread.finished th);
  (* exactly one get was outstanding for that block during the race: the
     fault joined it rather than issuing a duplicate *)
  match Stache.check_invariants st with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_prefetch_noop_cases () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        (* unmapped page on node 1: no-op; home page on node 0: no-op *)
        Stache.prefetch st ~th ~node:0 ~vaddr:!va `Ro);
      (fun th ->
        Thread.yield th;
        Thread.advance th 2000;
        Stache.prefetch st ~th ~node:1 ~vaddr:!va `Ro);
      (fun _ -> ()); (fun _ -> ());
    |] |> ignore;
  check_int "nothing issued" 0 (Stats.get (Stache.stats st) "prefetch_issued")

(* ---------------- Page migration ---------------- *)

let test_migration_moves_home () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:256 ();
        for w = 0 to 31 do
          System.cpu_write_f64 sys ~node:0 th (!va + (w * 8)) (float_of_int w)
        done;
        Thread.yield th;
        Stache.migrate_page st ~th ~node:0 ~vpage:(Addr.page_of !va)
          ~new_home:2;
        Thread.yield th);
      (fun _ -> ()); (fun _ -> ()); (fun _ -> ());
    |] |> ignore;
  check_int "registry updated" 2 (Stache.home_of st ~vaddr:!va);
  let new_mem = System.node_mem sys 2 in
  check_bool "new home mapped" true
    (Tt_mem.Pagemem.is_mapped new_mem ~vpage:(Addr.page_of !va));
  Alcotest.(check (float 0.0)) "data moved" 5.0
    (Tt_mem.Pagemem.read_f64 new_mem ~vaddr:(!va + 40));
  (* old home keeps a readable stached copy *)
  let old_mem = System.node_mem sys 0 in
  check_bool "old home copy RO" true
    (Tag.equal Tag.Read_only (Tt_mem.Pagemem.get_tag old_mem ~vaddr:!va));
  check_int "migration counted" 1
    (Stats.get (Stache.stats st) "page_migrations");
  match Stache.check_invariants st with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_migration_then_access_from_everywhere () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  let barrier =
    Tt_sim.Barrier.create engine ~participants:4 ~latency:11
  in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 3.25;
        Tt_sim.Barrier.wait barrier th;
        (* node 1 fetched a copy pre-migration (stale local_homes) *)
        Tt_sim.Barrier.wait barrier th;
        Stache.migrate_page st ~th ~node:0 ~vpage:(Addr.page_of !va)
          ~new_home:3;
        Tt_sim.Barrier.wait barrier th;
        (* old home can still read its (now stached) copy *)
        Alcotest.(check (float 0.0)) "old home reads" 3.25
          (System.cpu_read_f64 sys ~node:0 th !va);
        Tt_sim.Barrier.wait barrier th);
      (fun th ->
        Tt_sim.Barrier.wait barrier th;
        Alcotest.(check (float 0.0)) "pre-migration fetch" 3.25
          (System.cpu_read_f64 sys ~node:1 th !va);
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th;
        (* node 1 writes post-migration: its stale table points at the old
           home, which must forward the upgrade to the new home *)
        System.cpu_write_f64 sys ~node:1 th !va 4.5;
        Tt_sim.Barrier.wait barrier th);
      (fun th ->
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th;
        (* fresh consumer after everything: sees the latest value *)
        Alcotest.(check (float 0.0)) "fresh consumer" 4.5
          (System.cpu_read_f64 sys ~node:2 th !va));
      (fun th ->
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th;
        Tt_sim.Barrier.wait barrier th);
    |] |> ignore;
  check_bool "a request was forwarded" true
    (Stats.get (Stache.stats st) "forwarded" >= 1)

let test_migration_rejects_remote_owner () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  let threads =
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th;
        Thread.advance th 10_000;
        Thread.yield th;
        (* node 1 owns the block now: migration must refuse *)
        try
          Stache.migrate_page st ~th ~node:0 ~vpage:(Addr.page_of !va)
            ~new_home:2;
          Alcotest.fail "migration with remote owner must raise"
        with Invalid_argument _ -> ());
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        System.cpu_write_f64 sys ~node:1 th !va 2.0);
      (fun _ -> ());
      (fun _ -> ());
    |]
    |> Array.mapi (fun i body ->
           Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) body)
  in
  Engine.run engine;
  Array.iter (fun th -> check_bool "finished" true (Thread.finished th)) threads

let test_em3d_software_prefetch () =
  (* §4: prefetching hides latency but does not reduce message traffic *)
  let nodes = 8 in
  let run software_prefetch =
    let cfg =
      { Tt_app.Em3d.total_nodes = 2400; degree = 6; pct_remote = 30;
        iters = 3; seed = 47; software_prefetch }
    in
    let machine =
      Tt_harness.Machine.typhoon_stache { Params.default with Params.nodes }
    in
    let inst = Tt_app.Em3d.make cfg ~nprocs:nodes in
    let r = Tt_harness.Run.spmd machine ~name:"em3d" inst.Tt_app.Em3d.body in
    ignore
      (Tt_harness.Run.spmd machine ~name:"em3d-v" ~check:false
         inst.Tt_app.Em3d.verify);
    ( r.Tt_harness.Run.cycles,
      Stats.get r.Tt_harness.Run.run_stats "msgs.request"
      + Stats.get r.Tt_harness.Run.run_stats "msgs.response" )
  in
  let plain_c, plain_m = run false in
  let pf_c, pf_m = run true in
  check_bool
    (Printf.sprintf "prefetch faster (%d vs %d)" pf_c plain_c)
    true (pf_c < plain_c);
  check_bool
    (Printf.sprintf "traffic not reduced (%d vs %d)" pf_m plain_m)
    true (pf_m >= plain_m)

(* Fuzz: random accesses interleaved with page migrations at quiescent
   barriers; values must survive the moves and every machine invariant must
   hold.  Migrations that catch a block remotely owned are legitimately
   refused and skipped. *)
let test_migration_under_load () =
  let nodes = 4 in
  let pages = 3 in
  let migrated = ref 0 in
  List.iter
    (fun seed ->
      let machine, _sys, st =
        Tt_harness.Machine.typhoon_stache_full
          { Params.default with Params.nodes; seed }
      in
      let bases = Array.make pages 0 in
      let migrate_target = ref None in
      Hashtbl.replace machine.Tt_harness.Machine.hooks "migrate"
        (fun ~node th ->
          match !migrate_target with
          | None -> ()
          | Some (vpage, new_home) -> (
              migrate_target := None;
              try
                Stache.migrate_page st ~th ~node ~vpage ~new_home;
                incr migrated
              with Invalid_argument _ -> () (* not quiescent: skip *)));
      let r =
        Tt_harness.Run.spmd machine ~name:"migration-fuzz" (fun env ->
            let open Tt_app in
            if env.Env.proc = 0 then
              for pg = 0 to pages - 1 do
                (* page-sized so each region owns its page: migration moves
                   whole pages *)
                bases.(pg) <- env.Env.alloc ~home:0 Tt_mem.Addr.page_size
              done;
            env.Env.barrier ();
            let prng = Tt_util.Prng.create ~seed:((seed * 7) + env.Env.proc) in
            for round = 1 to 4 do
              for _op = 1 to 8 do
                let pg = Tt_util.Prng.int prng pages in
                let a = bases.(pg) + (env.Env.proc * Env.word) in
                env.Env.write a (env.Env.read a +. 1.0)
              done;
              env.Env.barrier ();
              if env.Env.proc = 0 then begin
                let pg = round mod pages in
                (* reclaim remotely-owned blocks: a home read recalls the
                   owner, leaving the block migratable (Shared) *)
                for b = 0 to (512 / 32) - 1 do
                  ignore (env.Env.read (bases.(pg) + (b * 32)))
                done;
                migrate_target :=
                  Some
                    ( Tt_mem.Addr.page_of bases.(pg),
                      1 + (round mod (nodes - 1)) );
                env.Env.hook "migrate"
              end;
              env.Env.barrier ()
            done;
            (* verify: slot (pg, proc) counts that proc's picks of pg *)
            env.Env.barrier ();
            if env.Env.proc = 0 then begin
              let counts = Array.make_matrix pages nodes 0 in
              for proc = 0 to nodes - 1 do
                let replay = Tt_util.Prng.create ~seed:((seed * 7) + proc) in
                for _round = 1 to 4 do
                  for _op = 1 to 8 do
                    let pg = Tt_util.Prng.int replay pages in
                    counts.(pg).(proc) <- counts.(pg).(proc) + 1
                  done
                done
              done;
              for pg = 0 to pages - 1 do
                for proc = 0 to nodes - 1 do
                  let got = env.Env.read (bases.(pg) + (proc * Env.word)) in
                  let want = float_of_int counts.(pg).(proc) in
                  if got <> want then
                    failwith
                      (Printf.sprintf "seed %d: page %d proc %d = %g, want %g"
                         seed pg proc got want)
                done
              done
            end)
      in
      ignore r)
    [ 1; 2; 3 ];
  check_bool
    (Printf.sprintf "some migrations actually happened (%d)" !migrated)
    true (!migrated > 0)

let () =
  Alcotest.run "extensions"
    [
      ( "msg_sync",
        [
          Alcotest.test_case "fetch-add is atomic" `Quick test_fetch_add_atomic;
          Alcotest.test_case "message barrier" `Quick
            test_msg_barrier_releases_everyone;
          Alcotest.test_case "cost vs hardware barrier" `Quick
            test_msg_barrier_vs_hardware_cost;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "hides latency" `Quick test_prefetch_hides_latency;
          Alcotest.test_case "raced by demand access" `Quick
            test_prefetch_raced_by_demand_access;
          Alcotest.test_case "no-op cases" `Quick test_prefetch_noop_cases;
          Alcotest.test_case "em3d: latency hidden, traffic not reduced" `Slow
            test_em3d_software_prefetch;
        ] );
      ( "migration",
        [
          Alcotest.test_case "moves home and data" `Quick
            test_migration_moves_home;
          Alcotest.test_case "stale requesters are forwarded" `Quick
            test_migration_then_access_from_everywhere;
          Alcotest.test_case "rejects remote owner" `Quick
            test_migration_rejects_remote_owner;
          Alcotest.test_case "fuzz under load" `Slow
            test_migration_under_load;
        ] );
    ]
