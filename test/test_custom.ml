(* Tests for the EM3D delayed-update protocol. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module System = Tt_typhoon.System
module Stache = Tt_stache.Stache
module Proto = Tt_custom.Em3d_proto
module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Em3d = Tt_app.Em3d
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(nodes = 4) () =
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  let st = Stache.install sys () in
  let proto = Proto.install sys st in
  (engine, sys, st, proto)

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
    threads

(* custom alloc retypes the page and registers it *)
let test_alloc_retypes_page () =
  let engine, sys, _, proto = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Proto.alloc proto ~th ~node:0 ~kind:"e" ~home:1 ~bytes:64 ());
      (fun _ -> ()); (fun _ -> ()); (fun _ -> ());
    |];
  let page =
    Tt_mem.Pagemem.get_page (System.node_mem sys 1) ~vpage:(Addr.page_of !va)
  in
  check_int "custom home mode" Proto.mode_custom_home page.Tt_mem.Pagemem.mode

(* a consumer copy never faults the home on write, and updates flow at the
   flush *)
let test_update_flow () =
  let engine, sys, _, proto = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Proto.alloc proto ~th ~node:0 ~kind:"e" ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th;
        (* give node 1 time to fetch a copy *)
        Thread.advance th 5000;
        Thread.yield th;
        (* rewrite: with the update protocol the home never faults *)
        System.cpu_write_f64 sys ~node:0 th !va 2.0;
        (* push the update *)
        Proto.flush_and_wait proto ~th ~node:0 ~kind:"e");
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        Alcotest.(check (float 0.0)) "initial fetch" 1.0
          (System.cpu_read_f64 sys ~node:1 th !va);
        (* wait for the update of step 1 *)
        Proto.flush_and_wait proto ~th ~node:1 ~kind:"e";
        Alcotest.(check (float 0.0)) "updated in place" 2.0
          (System.cpu_read_f64 sys ~node:1 th !va));
      (fun th -> Proto.flush_and_wait proto ~th ~node:2 ~kind:"e");
      (fun th -> Proto.flush_and_wait proto ~th ~node:3 ~kind:"e");
    |];
  check_int "exactly one update sent" 1
    (Stats.get (Proto.stats proto) "updates_sent");
  check_bool "home tag stays ReadWrite" true
    (Tag.equal Tag.Read_write
       (Tt_mem.Pagemem.get_tag (System.node_mem sys 0) ~vaddr:!va))

let test_write_to_remote_copy_rejected () =
  let engine, sys, _, proto = mk () in
  let va = ref 0 in
  let threads =
    [|
      (fun th ->
        va := Proto.alloc proto ~th ~node:0 ~kind:"e" ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        ignore (System.cpu_read_f64 sys ~node:1 th !va);
        (* owners-compute violation *)
        System.cpu_write_f64 sys ~node:1 th !va 9.9);
      (fun _ -> ());
      (fun _ -> ());
    |]
    |> Array.mapi (fun i body ->
           Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) body)
  in
  (try
     Engine.run engine;
     Alcotest.fail "expected a protocol error"
   with
  | Thread.Failure_in (_, Invalid_argument _) | Invalid_argument _ -> ());
  ignore threads

(* Full-application correctness on the update machine, including buffering
   of early updates, across remote fractions. *)
let test_em3d_correct_on_update_machine () =
  List.iter
    (fun pct_remote ->
      let nodes = 8 in
      let cfg =
        { Em3d.total_nodes = 1600; degree = 4; pct_remote; iters = 4;
          seed = 17;
      software_prefetch = false }
      in
      let machine = Machine.typhoon_em3d { Params.default with Params.nodes } in
      let inst = Em3d.make cfg ~nprocs:nodes in
      ignore (Run.spmd machine ~name:"em3d" inst.Em3d.body);
      ignore (Run.spmd machine ~name:"em3d-v" ~check:false inst.Em3d.verify))
    [ 0; 25; 50 ]

(* Steady-state message economy: far fewer messages than Stache on the same
   configuration. *)
let test_update_message_economy () =
  let nodes = 8 in
  let cfg =
    { Em3d.total_nodes = 1600; degree = 4; pct_remote = 40; iters = 4;
      seed = 23;
      software_prefetch = false }
  in
  let messages machine =
    let inst = Em3d.make cfg ~nprocs:nodes in
    let r = Run.spmd machine ~name:"em3d" inst.Em3d.body in
    Stats.get r.Run.run_stats "msgs.request"
    + Stats.get r.Run.run_stats "msgs.response"
  in
  let p = { Params.default with Params.nodes } in
  let stache_msgs = messages (Machine.typhoon_stache p) in
  let update_msgs = messages (Machine.typhoon_em3d p) in
  check_bool
    (Printf.sprintf "update (%d) << stache (%d)" update_msgs stache_msgs)
    true
    (2 * update_msgs < stache_msgs)

let () =
  Alcotest.run "custom"
    [
      ( "em3d-protocol",
        [
          Alcotest.test_case "alloc retypes pages" `Quick test_alloc_retypes_page;
          Alcotest.test_case "update flow" `Quick test_update_flow;
          Alcotest.test_case "owners-compute enforced" `Quick
            test_write_to_remote_copy_rejected;
          Alcotest.test_case "full app correct at 0/25/50% remote" `Slow
            test_em3d_correct_on_update_machine;
          Alcotest.test_case "message economy vs stache" `Slow
            test_update_message_economy;
        ] );
    ]
