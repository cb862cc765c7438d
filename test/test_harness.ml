(* Tests for the harness layer: the machine facade, the SPMD runner, and
   regression tests for subtle simulator timing semantics. *)

module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Catalog = Tt_harness.Catalog
module Env = Tt_app.Env
module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Np = Tt_typhoon.Np
module System = Tt_typhoon.System

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let params nodes = { Params.default with Params.nodes }

let test_spmd_reports_cycles_per_proc () =
  let machine = Machine.dirnnb (params 4) in
  let r =
    Run.spmd machine ~name:"unbalanced" (fun env ->
        env.Env.work (100 * (env.Env.proc + 1)))
  in
  check_int "four procs" 4 (Array.length r.Run.proc_cycles);
  check_int "cycles is the max" 400 r.Run.cycles;
  check_int "proc 0 clock" 100 r.Run.proc_cycles.(0);
  Alcotest.(check string) "label" "dirnnb" r.Run.machine_label

let test_spmd_detects_stuck_thread () =
  let machine = Machine.dirnnb (params 2) in
  try
    ignore
      (Run.spmd machine ~name:"deadlock" (fun env ->
           (* proc 0 never reaches the barrier *)
           if env.Env.proc <> 0 then env.Env.barrier ()));
    Alcotest.fail "expected Stuck"
  with Run.Stuck msg ->
    check_bool "names the blocked processor" true
      (String.length msg > 0)

let test_hooks_default_to_noop () =
  let machine = Machine.dirnnb (params 2) in
  let r =
    Run.spmd machine ~name:"hooks" (fun env ->
        check_bool "hook absent" false (env.Env.has_hook "em3d.sync:e");
        env.Env.hook "em3d.sync:e" (* must be a silent no-op *))
  in
  ignore r

let test_update_machine_exposes_hooks () =
  let machine = Machine.typhoon_em3d (params 2) in
  ignore
    (Run.spmd machine ~name:"hooks" (fun env ->
         check_bool "sync:e" true (env.Env.has_hook "em3d.sync:e");
         check_bool "sync:h" true (env.Env.has_hook "em3d.sync:h")))

let test_alloc_kind_falls_back () =
  let machine = Machine.dirnnb (params 2) in
  ignore
    (Run.spmd machine ~name:"alloc" (fun env ->
         if env.Env.proc = 0 then begin
           let a = env.Env.alloc_kind "em3d:e" 64 in
           check_bool "fallback returns an address" true (a > 0);
           env.Env.write a 1.5;
           Alcotest.(check (float 0.0)) "usable" 1.5 (env.Env.read a)
         end))

let test_prefetch_is_noop_on_dirnnb () =
  let machine = Machine.dirnnb (params 2) in
  ignore
    (Run.spmd machine ~name:"pf" (fun env ->
         if env.Env.proc = 0 then begin
           let a = env.Env.alloc 64 in
           env.Env.prefetch a (* must not raise or deadlock *);
           env.Env.write a 1.0
         end))

let test_machines_share_alloc_layout () =
  (* the same allocation sequence must give identical addresses and homes on
     both machines — Figure 3 depends on identical data placement *)
  let trace make =
    let machine : Machine.t = make (params 4) in
    let out = ref [] in
    ignore
      (Run.spmd machine ~name:"layout" (fun env ->
           if env.Env.proc = 0 then begin
             out := [ env.Env.alloc 100; env.Env.alloc ~home:2 5000;
                      env.Env.alloc 64 ]
           end));
    !out
  in
  Alcotest.(check (list int))
    "identical layout" (trace Machine.dirnnb)
    (trace (fun p -> Machine.typhoon_stache p))

(* --- the machine catalogue and its sync-hook chain --- *)

let test_every_machine_builds_and_verifies () =
  Alcotest.(check (list string))
    "catalogue"
    [ "dirnnb"; "stache"; "update"; "migratory"; "prodcons"; "widerep";
      "delayed"; "adaptive" ]
    Machine.names;
  List.iter
    (fun name ->
      let machine = Machine.of_name name (params 4) in
      Alcotest.(check string)
        (name ^ " label")
        (if name = "dirnnb" then name else "typhoon/" ^ name)
        machine.Machine.label;
      let inst =
        Catalog.make ~name:"ocean" ~size:Catalog.Small ~scale:0.05 ~nprocs:4
      in
      ignore (Run.verified machine inst))
    Machine.names

(* the shootout's protocols are the catalogue minus dirnnb and update, in
   catalogue order: [tt list] and [tt proto]'s default grid print them *)
let test_protocols_derive_from_catalogue () =
  Alcotest.(check (list string))
    "protocols"
    [ "stache"; "migratory"; "prodcons"; "widerep"; "delayed"; "adaptive" ]
    Catalog.protocols

(* a stub app: each processor works [100 * (proc + 1)] cycles; its verify
   pass works one cycle and, when [bad], fails processor 0's oracle *)
let stub ?(bad = false) () =
  { Catalog.app_name = "stub";
    body = (fun env -> env.Env.work (100 * (env.Env.proc + 1)));
    verify =
      (fun env ->
        env.Env.work 1;
        if bad && env.Env.proc = 0 then failwith "stub oracle mismatch");
    work_items = 7 }

let test_verified_returns_the_body_run () =
  let r = Run.verified (Machine.dirnnb (params 4)) (stub ()) in
  check_int "the body's cycles, not the verify pass's" 400 r.Run.cycles;
  Alcotest.(check string) "named after the app" "stub" r.Run.app_name

(* the oracle's failure surfaces from its verify-pass fiber *)
let oracle_failure =
  Thread.Failure_in ("stub-verify.cpu0", Failure "stub oracle mismatch")

let test_verified_lets_a_failing_oracle_escape () =
  Alcotest.check_raises "oracle failure" oracle_failure (fun () ->
      ignore (Run.verified (Machine.dirnnb (params 4)) (stub ~bad:true ())))

(* a cell builds its machine by name and one fresh app instance per run *)
let test_cell_builds_a_fresh_app () =
  let built = ref [] in
  let app ~nprocs =
    built := nprocs :: !built;
    stub ()
  in
  let m = Run.cell ~verify:true (app, "stache", params 4) in
  Alcotest.(check (list int)) "one instance, at the cell's nodes" [ 4 ] !built;
  check_int "cycles" 400 m.Run.cycles;
  check_int "work items" 7 m.Run.work_items;
  check_int "no traffic" 0 m.Run.msgs;
  ignore (Run.cell ~verify:false (app, "dirnnb", params 2));
  Alcotest.(check (list int)) "a second cell, a second instance" [ 2; 4 ]
    !built;
  Alcotest.check_raises "verified cells run the oracle" oracle_failure
    (fun () ->
      ignore
        (Run.cell ~verify:true
           ((fun ~nprocs:_ -> stub ~bad:true ()), "update", params 2)))

let test_sync_hooks_fire_in_install_order () =
  let machine = Machine.dirnnb (params 4) in
  let log = ref [] in
  let hook tag point ~proc _th = log := (tag, point, proc) :: !log in
  Machine.add_sync machine (hook "first");
  Machine.add_sync machine (hook "second");
  ignore
    (Run.spmd machine ~name:"sync" (fun env ->
         env.Env.barrier ();
         env.Env.lock 0;
         env.Env.unlock 0));
  (* hooks never block here, so each firing is an adjacent pair *)
  let rec firings = function
    | [] -> []
    | ("first", p, n) :: ("second", p', n') :: rest when p = p' && n = n' ->
        (p, n) :: firings rest
    | _ -> Alcotest.fail "hooks did not fire as install-ordered pairs"
  in
  let fired = firings (List.rev !log) in
  List.iter
    (fun (label, point) ->
      Alcotest.(check (list int))
        (label ^ " on every participant")
        [ 0; 1; 2; 3 ]
        (List.sort compare
           (List.filter_map
              (fun (p, n) -> if p = point then Some n else None)
              fired)))
    [ ("pre-barrier", Machine.Pre_barrier);
      ("post-barrier", Machine.Post_barrier);
      ("pre-release", Machine.Pre_release) ];
  (* Post_barrier runs after the release: every participant has arrived *)
  let rec arrivals_first seen_post = function
    | [] -> true
    | (Machine.Pre_barrier, _) :: _ when seen_post -> false
    | (p, _) :: rest ->
        arrivals_first (seen_post || p = Machine.Post_barrier) rest
  in
  check_bool "no Post_barrier before the last Pre_barrier" true
    (arrivals_first false fired)

(* Regression: a block fault raised by a thread running ahead of global
   time must not be serviced before the thread's own clock — the NP work
   queue respects ready times. *)
let test_np_respects_fault_ready_time () =
  let engine = Engine.create () in
  let sys = System.create engine (params 2) in
  let handled_at = ref (-1) in
  Tempest.Handlers.set_block_fault (System.handlers sys) ~mode:0
    (fun ep fault ->
      handled_at := Np.clock (System.node_np sys 0);
      ep.Tempest.set_rw ~vaddr:fault.Tempest.fault_vaddr;
      ep.Tempest.resume fault.Tempest.fault_resumption);
  let page = 0x4000 in
  let va = page * Tt_mem.Addr.page_size in
  let ep = System.endpoint sys 0 in
  ep.Tempest.map_page ~vpage:page ~home:0 ~mode:0
    ~init_tag:Tt_mem.Tag.Invalid;
  let _th =
    Thread.spawn engine ~quantum:1_000_000 ~name:"runahead" (fun th ->
        (* run far ahead of global time without yielding, then fault *)
        Thread.advance th 5000;
        ignore (System.cpu_read_f64 sys ~node:0 th va))
  in
  Engine.run engine;
  check_bool
    (Printf.sprintf "handler ran at NP clock %d >= fault time 5000"
       !handled_at)
    true (!handled_at >= 5000)

(* Regression: deferred (bulk) work must not starve when queued behind
   in-flight messages with future ready times. *)
let test_np_wait_then_run () =
  let engine = Engine.create () in
  let sys = System.create engine (params 2) in
  let order = ref [] in
  let h =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun _ ~src:_ ~args ~data:_ -> order := args.(0) :: !order)
  in
  let ep = System.endpoint sys 0 in
  (* two self-sends: both arrive at t+1 and execute in order *)
  ep.Tempest.send ~dst:0 ~vnet:Tt_net.Message.Request ~handler:h
    ~args:[| 1 |] ~data:Bytes.empty;
  ep.Tempest.send ~dst:0 ~vnet:Tt_net.Message.Request ~handler:h
    ~args:[| 2 |] ~data:Bytes.empty;
  Engine.run engine;
  Alcotest.(check (list int)) "both ran in order" [ 1; 2 ] (List.rev !order)

(* Stress: coherence fuzz with aggressive page replacement (2-page stache)
   — exercises writeback-on-replacement against the oracle. *)
let test_fuzz_with_page_replacement () =
  let nodes = 4 in
  let words_per_page = Tt_mem.Addr.page_size / 8 in
  let pages = 5 in
  List.iter
    (fun seed ->
      let machine =
        Machine.typhoon_stache
          { Params.default with
            Params.nodes; seed; stache_max_pages = Some 2 }
      in
      let bases = Array.make pages 0 in
      let expect = Array.make_matrix pages 4 0.0 in
      let r =
        Run.spmd machine ~name:"replacement-fuzz" (fun env ->
            if env.Env.proc = 0 then
              for pg = 0 to pages - 1 do
                bases.(pg) <-
                  env.Env.alloc ~home:0 (words_per_page * Env.word)
              done;
            env.Env.barrier ();
            let prng = Tt_util.Prng.create ~seed:(seed + env.Env.proc) in
            (* every proc sweeps pages in different orders, writing to its
               private slot of the first block of each page *)
            for _round = 1 to 6 do
              let pg = Tt_util.Prng.int prng pages in
              let a = bases.(pg) + (env.Env.proc * Env.word) in
              env.Env.write a (env.Env.read a +. 1.0);
              if env.Env.proc = 0 then
                expect.(pg).(0) <- expect.(pg).(0)
            done;
            env.Env.barrier ())
      in
      ignore r;
      (* replay: per-proc increments are private slots, so final value =
         number of times that proc picked that page *)
      let counts = Array.make_matrix pages nodes 0 in
      for proc = 0 to nodes - 1 do
        let prng = Tt_util.Prng.create ~seed:(seed + proc) in
        for _round = 1 to 6 do
          let pg = Tt_util.Prng.int prng pages in
          counts.(pg).(proc) <- counts.(pg).(proc) + 1
        done
      done;
      ignore
        (Run.spmd machine ~name:"replacement-check" ~check:false (fun env ->
             if env.Env.proc = 0 then
               for pg = 0 to pages - 1 do
                 for proc = 0 to nodes - 1 do
                   let a = bases.(pg) + (proc * Env.word) in
                   let got = env.Env.read a in
                   let want = float_of_int counts.(pg).(proc) in
                   if got <> want then
                     failwith
                       (Printf.sprintf
                          "seed %d: page %d proc %d = %g, want %g" seed pg
                          proc got want)
                 done
               done)))
    [ 1; 2; 3; 4; 5 ]

(* ---------------- sampling profiler ---------------- *)

module Profile = Tt_harness.Profile

let test_profile_summarize () =
  let caller = [| "Tt_harness__Profile.sample"; "Dune__exe__Main.entry" |] in
  let stacks =
    [
      (* an engine event: the profiler's and the caller's frames go, and
         the handler's own call back into the engine stays inside it *)
      Array.append
        [| "Tt_harness__Profile.sample.handler"; "Tt_sim__Engine.at";
           "Tt_net__Fabric.deliver"; "Tt_sim__Engine.fire";
           "Tt_sim__Engine.run"; "Tt_harness__Run.spmd" |]
        caller;
      (* a CPU fiber: no engine frame, and no caller frames *)
      [| "Tt_cache__Cache.lookup"; "Tt_dirnnb__System.cpu_access";
         "Tt_sim__Thread.spawn.(fun)" |];
      [| "Tt_dirnnb__System.cpu_access"; "Tt_sim__Thread.spawn.(fun)" |];
      (* main stack outside the engine *)
      Array.append [| "Dune__exe__Tt.build" |] caller;
    ]
  in
  let p = Profile.summarize ~interval_s:0.001 ~cpu_s:0.004 ~caller stacks in
  check_int "samples" 4 p.Profile.samples;
  Alcotest.(check (list (pair string int)))
    "by where"
    [ ("fiber", 2); ("event", 1); ("main", 1) ]
    (List.map
       (fun (w, n) ->
         ( (match w with
           | Profile.Cpu_fiber -> "fiber"
           | Profile.Engine_event -> "event"
           | Profile.Main -> "main"),
           n ))
       p.Profile.by_where);
  Alcotest.(check (list (pair string int)))
    "event entry" [ ("Tt_net.Fabric.deliver", 1) ] p.Profile.event_entries;
  check_int "self charged past the profiler's frame" 1
    (List.assoc "Tt_sim.Engine.at" p.Profile.self);
  check_bool "profiler frames never appear" false
    (List.mem_assoc "Tt_harness.Profile" p.Profile.modules_inclusive);
  check_bool "caller frames never appear" false
    (List.mem_assoc "Main" p.Profile.modules_inclusive);
  check_int "inclusive counts every frame" 2
    (List.assoc "Tt_dirnnb.System.cpu_access" p.Profile.inclusive);
  check_int "module inclusive counts once per sample" 1
    (List.assoc "Tt_sim.Engine" p.Profile.modules_inclusive);
  check_int "executable prefix dropped" 1
    (List.assoc "Tt" p.Profile.modules_self)

let test_profile_samples_and_restores () =
  let spin () =
    (* allocate so the loop reaches poll points; ~50 ms of CPU time *)
    let t0 = Sys.time () and acc = ref [] in
    while Sys.time () -. t0 < 0.05 do
      acc := [ Sys.time () ];
    done;
    List.length !acc
  in
  let r, p = Profile.sample spin in
  check_int "result passes through" 1 r;
  check_bool "took samples" true (p.Profile.samples > 0);
  check_bool "handler removed afterwards" true
    (Sys.signal Sys.sigalrm Sys.Signal_default = Sys.Signal_default)

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "per-proc cycles" `Quick
            test_spmd_reports_cycles_per_proc;
          Alcotest.test_case "stuck detection" `Quick
            test_spmd_detects_stuck_thread;
          Alcotest.test_case "hooks default to no-op" `Quick
            test_hooks_default_to_noop;
          Alcotest.test_case "update machine exposes hooks" `Quick
            test_update_machine_exposes_hooks;
          Alcotest.test_case "alloc_kind fallback" `Quick
            test_alloc_kind_falls_back;
          Alcotest.test_case "prefetch no-op on dirnnb" `Quick
            test_prefetch_is_noop_on_dirnnb;
          Alcotest.test_case "identical data layout across machines" `Quick
            test_machines_share_alloc_layout;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "every machine builds and verifies" `Quick
            test_every_machine_builds_and_verifies;
          Alcotest.test_case "sync hooks fire in install order" `Quick
            test_sync_hooks_fire_in_install_order;
          Alcotest.test_case "protocols derive from the catalogue" `Quick
            test_protocols_derive_from_catalogue;
        ] );
      ( "cell",
        [
          Alcotest.test_case "verified returns the body run" `Quick
            test_verified_returns_the_body_run;
          Alcotest.test_case "verified lets a failing oracle escape" `Quick
            test_verified_lets_a_failing_oracle_escape;
          Alcotest.test_case "a cell builds a fresh app" `Quick
            test_cell_builds_a_fresh_app;
        ] );
      ( "np-timing",
        [
          Alcotest.test_case "fault ready time honoured" `Quick
            test_np_respects_fault_ready_time;
          Alcotest.test_case "message ordering" `Quick test_np_wait_then_run;
        ] );
      ( "profile",
        [
          Alcotest.test_case "summarize" `Quick test_profile_summarize;
          Alcotest.test_case "samples and restores the handler" `Quick
            test_profile_samples_and_restores;
        ] );
      ( "stress",
        [
          Alcotest.test_case "fuzz with page replacement" `Slow
            test_fuzz_with_page_replacement;
        ] );
    ]
