(* Finite buffering (§5.1): credit-based backpressure, the overflow/spill
   path with status-handler drains, graceful Overload aborts, NP ring
   capacities, and the watchdog's stall/deadlock detection.

   Two regimes are covered: with the default ample credits the flow layer
   must cost nothing (the direct path is pure integer bookkeeping, so the
   pinned round-trip cycles hold), and with squeezed credits the machine
   must degrade gracefully — spill, block, or abort with a diagnostic —
   never hang and never corrupt results. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module System = Tt_typhoon.System
module Np = Tt_typhoon.Np
module Message = Tt_net.Message
module Fabric = Tt_net.Fabric
module Reliable = Tt_net.Reliable
module Flow = Tt_net.Flow
module Faults = Tt_net.Faults
module Overload = Tt_net.Overload
module Stats = Tt_util.Stats
module Prng = Tt_util.Prng
module Tlb = Tt_mem.Tlb
module Cache = Tt_cache.Cache
module H = Tt_harness
module Run = Tt_harness.Run
module Watchdog = Tt_harness.Watchdog
module Faultsweep = Tt_harness.Faultsweep
module Env = Tt_app.Env
module T = Tt_torture.Torture

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains what sub s =
  if not (contains s sub) then
    Alcotest.failf "%s: expected %S inside %S" what sub s

(* ---------------- Ample credits: pinned timing ---------------- *)

(* The Fig. 3 unit event (one 512-byte block fetched word by word between
   two nodes) with the default ample credits: every send takes the direct
   path, so the round trips cost exactly the cycles pinned in
   test_regression.ml and the flow layer never parks, spills or drains. *)

let roundtrip make_machine =
  let params = { Params.default with Params.nodes = 2 } in
  let machine : H.Machine.t = make_machine params in
  let base = ref 0 in
  Run.spmd machine ~name:"roundtrip" ~check:false (fun env ->
      if env.Env.proc = 0 then base := env.Env.alloc ~home:0 512;
      env.Env.barrier ();
      if env.Env.proc = 1 then
        for w = 0 to 63 do
          ignore (env.Env.read (!base + (w * 8)))
        done)

let test_roundtrip_pinned () =
  let stache = roundtrip (fun p -> H.Machine.typhoon_stache p) in
  check_int "stache: pinned cycles" 2483 stache.Run.cycles;
  List.iter
    (fun k -> check_int ("stache: " ^ k) 0 (Stats.get stache.Run.run_stats k))
    [ "flow.blocked"; "flow.spilled"; "flow.drain_chores" ];
  (* DirNNB's hardware network has no flow layer *)
  check_int "dirnnb: pinned cycles" 1952 (roundtrip H.Machine.dirnnb).Run.cycles

(* ---------------- Squeezed credits: CPU senders block ---------------- *)

let squeezed ?(spill = Params.default.Params.flow_spill_capacity) ~credits
    ~nodes () =
  {
    Params.default with
    Params.nodes;
    flow_request_credits = credits;
    flow_response_credits = credits;
    flow_spill_capacity = spill;
  }

let test_cpu_sender_blocks_and_resumes () =
  let engine = Engine.create () in
  let sys = System.create engine (squeezed ~credits:1 ~nodes:2 ()) in
  let received = ref 0 in
  let sink =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun _ep ~src:_ ~args:_ ~data:_ -> incr received)
  in
  let statuses = ref 0 and last_pending = ref (-1) in
  Tempest.Handlers.set_status (System.handlers sys) (fun ep ~pending ->
      incr statuses;
      last_pending := pending;
      check_int "status pending matches endpoint probe" pending
        (ep.Tempest.overflow_pending ()));
  let ep = System.endpoint sys 0 in
  let th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        for _ = 1 to 20 do
          (* a tail send is the one suspension with_cpu_context allows *)
          System.with_cpu_context sys ~node:0 th (fun () ->
              ep.Tempest.send ~dst:1 ~vnet:Message.Request
                ~handler:sink ~args:[||] ~data:Bytes.empty)
        done)
  in
  Engine.run engine;
  check_bool "sender finished" true (Thread.finished th);
  check_int "all messages delivered" 20 !received;
  let s = System.merged_stats sys in
  (* one credit: the first send is direct, every later one parks the
     thread until the predecessor's credit returns *)
  check_int "CPU sends blocked" 19 (Stats.get s "flow.blocked");
  check_int "parked messages drained" 19 (Stats.get s "flow.drained");
  check_int "no handler spills" 0 (Stats.get s "flow.spilled");
  check_bool "status handler ran" true (!statuses > 0);
  check_int "backlog empty at the end" 0 !last_pending

(* ---------------- Squeezed credits: handler sends spill ---------------- *)

let test_handler_sends_spill_and_drain () =
  let engine = Engine.create () in
  let sys = System.create engine (squeezed ~credits:1 ~nodes:2 ()) in
  let received = ref 0 in
  let sink =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun _ep ~src:_ ~args:_ ~data:_ -> incr received)
  in
  let last_pending = ref (-1) in
  Tempest.Handlers.set_status (System.handlers sys)
    (fun _ep ~pending -> last_pending := pending);
  let ep1 = System.endpoint sys 1 in
  (* NP context runs to completion: out of credits it must spill into
     the overflow buffer, never block *)
  Np.post_deferred (System.node_np sys 1) ~at:0 (fun () ->
      for _ = 1 to 20 do
        ep1.Tempest.send ~dst:0 ~vnet:Message.Request ~handler:sink
          ~args:[||] ~data:Bytes.empty
      done);
  Engine.run engine;
  check_int "all messages delivered" 20 !received;
  let s = System.merged_stats sys in
  check_int "handler sends spilled" 19 (Stats.get s "flow.spilled");
  check_int "spilled messages drained" 19 (Stats.get s "flow.drained");
  check_int "no CPU sends blocked" 0 (Stats.get s "flow.blocked");
  check_int "overflow high-water mark" 19 (Stats.get s "flow.peak_queued");
  check_bool "drain chores dispatched" true
    (Stats.get s "flow.drain_chores" > 0);
  check_int "backlog empty at the end" 0 !last_pending

let test_spill_overflow_aborts_with_diagnostic () =
  let engine = Engine.create () in
  let sys =
    System.create engine (squeezed ~credits:1 ~spill:4 ~nodes:2 ())
  in
  let sink =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun _ep ~src:_ ~args:_ ~data:_ -> ())
  in
  let ep1 = System.endpoint sys 1 in
  Np.post_deferred (System.node_np sys 1) ~at:0 (fun () ->
      (* 1 direct + 4 spilled fill everything; the 6th must abort *)
      for _ = 1 to 10 do
        ep1.Tempest.send ~dst:0 ~vnet:Message.Request ~handler:sink
          ~args:[||] ~data:Bytes.empty
      done);
  match Engine.run engine with
  | () -> Alcotest.fail "expected Overload out of the overfull spill"
  | exception Overload.Overload msg ->
      check_contains "diagnostic" "overflow buffer full" msg;
      check_contains "diagnostic names the node" "node 1" msg

(* ---------------- Waits-for graph probe (Flow unit) ---------------- *)

let test_flow_deadlock_probe () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let net = Reliable.create e f Reliable.Perfect in
  let fl =
    Flow.create net ~nodes:2 ~request_credits:1 ~response_credits:1
      ~spill_capacity:10 ~spill_cost:0 ~drain_cost:0 ~status_cost:0 ()
  in
  let chores = ref [] in
  Flow.set_hooks fl
    ~post:(fun _ chore -> chores := chore :: !chores)
    ~clock:(fun _ -> 0)
    ~charge:(fun _ _ -> ())
    ~status:(fun _ ~pending:_ -> ());
  let m ~src ~dst =
    Message.make ~src ~dst ~vnet:Message.Request ~handler:0 ~args:[||]
      ~data:Bytes.empty
  in
  (* each direction: one direct send eats the credit, one send parks *)
  Flow.send_from_handler fl ~at:0 (m ~src:0 ~dst:1);
  Flow.send_from_handler fl ~at:0 (m ~src:0 ~dst:1);
  Flow.send_from_handler fl ~at:0 (m ~src:1 ~dst:0);
  Flow.send_from_handler fl ~at:0 (m ~src:1 ~dst:0);
  check_int "node 0 parked" 1 (Flow.node_queued fl 0);
  check_int "node 1 parked" 1 (Flow.node_queued fl 1);
  (match Flow.deadlock fl with
  | None -> Alcotest.fail "expected a waits-for cycle"
  | Some d ->
      check_contains "cycle rendered" "waits-for cycle" d;
      check_contains "cycle names a node" "0" d);
  (* one returning credit makes node 0's parked message releasable: the
     cycle is broken and a drain chore was posted *)
  Flow.credit_return fl ~src:0 ~dst:1 Message.Request;
  check_bool "cycle broken by a releasable credit" true
    (Flow.deadlock fl = None);
  check_bool "drain chore posted" true (!chores <> []);
  List.iter (fun chore -> chore ()) !chores;
  check_int "node 0 drained" 0 (Flow.node_queued fl 0)

(* ---------------- NP ring capacity and wraparound ---------------- *)

let mk_np ~capacity =
  let engine = Engine.create () in
  let np =
    Np.create engine
      ~rtlb:(Tlb.create ~entries:64 ~miss_penalty:10 ())
      ~dcache:
        (Cache.create ~name:"np.dcache" ~size_bytes:4096 ~assoc:2
           ~prng:(Prng.create ~seed:1) ())
      ~capacity ~name:"npT" ()
  in
  (engine, np)

let test_np_ring_wraparound_at_capacity () =
  let engine, np = mk_np ~capacity:16 in
  let order = ref [] in
  Np.set_msg_exec np (fun m -> order := m.Message.handler :: !order);
  let post i at =
    Np.post_message np ~at
      (Message.make ~src:0 ~dst:0 ~vnet:Message.Request ~handler:i ~args:[||]
         ~data:Bytes.empty)
  in
  (* fill half, drain it — the ring's head is now mid-array, so refilling
     to exactly the capacity wraps the ring around the array boundary *)
  for i = 0 to 7 do
    post i 0
  done;
  ignore (Engine.run_until engine ~limit:500);
  check_int "first batch handled" 8 (Np.handled np);
  check_int "ring empty between batches" 0 (Np.depth np);
  for i = 8 to 23 do
    post i 1000
  done;
  check_int "ring holds exactly its capacity" 16 (Np.depth np);
  (let m =
     Message.make ~src:0 ~dst:0 ~vnet:Message.Request ~handler:99 ~args:[||]
       ~data:Bytes.empty
   in
   match Np.post_message np ~at:1000 m with
   | () -> Alcotest.fail "expected Overload on a full ring"
   | exception Overload.Overload msg ->
       check_contains "diagnostic names the NP" "npT" msg;
       check_contains "diagnostic names the ring" "request ring full" msg);
  Engine.run engine;
  check_int "everything handled" 24 (Np.handled np);
  check_int "FIFO order across the wraparound" 0
    (compare (List.init 24 (fun i -> i)) (List.rev !order))

(* ---------------- Watchdog: stall budget and deadlock probe -------- *)

(* A self-rescheduling no-op event keeps the engine busy forever without
   delivering anything — the delivered-work stall budget must abort. *)
let ticking_engine () =
  let e = Engine.create () in
  let rec tick () = Engine.after e 100 tick in
  tick ();
  e

let test_watchdog_stall_budget () =
  let e = ticking_engine () in
  let w = Watchdog.create ~max_stall:50_000 ~check_interval:10_000 () in
  match
    Watchdog.drive w e
      ~progress:(fun () -> 0)
      ~queues:(fun () -> "QSUMMARY")
      ~retransmits:(fun () -> 0)
  with
  | () -> Alcotest.fail "expected Expired on a stalled run"
  | exception Watchdog.Expired msg ->
      check_contains "stall named" "no delivery progress" msg;
      check_contains "queue summary appended" "QSUMMARY" msg

let test_watchdog_deadlock_probe () =
  let e = ticking_engine () in
  let w =
    Watchdog.create ~max_stall:10_000_000 ~check_interval:10_000 ()
  in
  match
    Watchdog.drive w e
      ~progress:(fun () -> 0)
      ~queues:(fun () -> "QSUMMARY")
      ~deadlock:(fun () -> Some "waits-for cycle 0 -> 1 -> 0")
      ~retransmits:(fun () -> 0)
  with
  | () -> Alcotest.fail "expected Expired on a detected deadlock"
  | exception Watchdog.Expired msg ->
      check_contains "deadlock named" "deadlock detected" msg;
      check_contains "probe diagnostic included" "waits-for cycle 0 -> 1 -> 0"
        msg

let test_watchdog_progress_defuses_stall () =
  (* the same ticking engine, but with a progress counter that advances:
     the stall budget must NOT fire; the cycle budget ends the run *)
  let e = ticking_engine () in
  let w =
    Watchdog.create ~max_cycles:200_000 ~max_stall:50_000
      ~check_interval:10_000 ()
  in
  let n = ref 0 in
  match
    Watchdog.drive w e
      ~progress:(fun () -> incr n; !n)
      ~retransmits:(fun () -> 0)
  with
  | () -> Alcotest.fail "expected Expired on the cycle budget"
  | exception Watchdog.Expired msg ->
      check_bool "stall did not fire" true
        (not (contains msg "no delivery progress"))

(* ---------------- Overload grids: apps and litmus shapes ---------- *)

(* Fig. 3 app under squeezed credits, bursty loss, and fault storms: every
   cell must terminate with correct results or a captured diagnostic —
   reaching the assertions at all proves no silent hang. *)
let test_overload_grid_faultsweep () =
  let points =
    Faultsweep.run ~apps:[ "em3d" ] ~machine:"stache" ~drops:[ 0.05 ]
      ~seeds:[ 1; 2 ] ~burst:(Faults.bursty ()) ~credits:2 ~spill:10_000
      ~scale:0.05 ~nodes:4 ()
  in
  check_int "grid size" 2 (List.length points);
  List.iter
    (fun p ->
      match p.Faultsweep.outcome with
      | Faultsweep.Passed -> ()
      | Faultsweep.Failed msg ->
          check_bool "failure carries a diagnostic" true
            (String.length msg > 0))
    points

(* Torture litmus shapes under tiny credits and queue capacities with
   perturbed schedules and faults: backpressure may slow or abort a run
   (Hang carries the diagnostic; Link is the transport giving up), but it
   must never corrupt coherence — no SC, stale, or invariant violations. *)
let test_torture_under_overload () =
  let tweak p =
    {
      p with
      Params.flow_request_credits = 2;
      flow_response_credits = 2;
      flow_spill_capacity = 64;
      np_queue_capacity = 256;
    }
  in
  List.iter
    (fun (litmus, drop) ->
      let case =
        {
          T.litmus;
          machine = "stache";
          drop;
          fault_seed = 3;
          perturb_rate = 0.25;
          perturb_seed = 7;
          iters = 2;
          sabotage = false;
        }
      in
      let r = T.run ~tweak_params:tweak case in
      match r.T.outcome with
      | T.Pass -> ()
      | T.Fail v -> (
          match v.T.kind with
          | T.Hang | T.Link ->
              check_bool
                (litmus ^ ": diagnosed abort carries detail")
                true
                (String.length v.T.detail > 0)
          | T.Sc | T.Stale | T.Invariant | T.Crash ->
              Alcotest.failf "%s: overload corrupted coherence: %s" litmus
                v.T.detail))
    [ ("SB", 0.0); ("SB", 0.1); ("MP", 0.1); ("LOCK", 0.08) ]

let () =
  Alcotest.run "flow"
    [
      ( "timing-parity",
        [ Alcotest.test_case "fig3 roundtrips" `Quick test_roundtrip_pinned ]
      );
      ( "backpressure",
        [
          Alcotest.test_case "CPU sender blocks and resumes" `Quick
            test_cpu_sender_blocks_and_resumes;
          Alcotest.test_case "handler sends spill and drain" `Quick
            test_handler_sends_spill_and_drain;
          Alcotest.test_case "overfull spill aborts with diagnostic" `Quick
            test_spill_overflow_aborts_with_diagnostic;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "waits-for probe" `Quick test_flow_deadlock_probe;
          Alcotest.test_case "watchdog stall budget" `Quick
            test_watchdog_stall_budget;
          Alcotest.test_case "watchdog deadlock probe" `Quick
            test_watchdog_deadlock_probe;
          Alcotest.test_case "progress defuses the stall budget" `Quick
            test_watchdog_progress_defuses_stall;
        ] );
      ( "np-capacity",
        [
          Alcotest.test_case "ring wraparound at capacity" `Quick
            test_np_ring_wraparound_at_capacity;
        ] );
      ( "overload-grids",
        [
          Alcotest.test_case "faultsweep under squeezed credits" `Quick
            test_overload_grid_faultsweep;
          Alcotest.test_case "torture litmus under overload" `Quick
            test_torture_under_overload;
        ] );
    ]
