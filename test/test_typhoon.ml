(* Tests for the Typhoon machine: Table 1 semantics end-to-end, fault
   dispatch, NP scheduling, bulk transfer, cost charging. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module System = Tt_typhoon.System
module Np = Tt_typhoon.Np
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Message = Tt_net.Message

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(nodes = 4) () =
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  (engine, sys)

let page = 0x2000

let base = page * Addr.page_size

let map_rw sys node =
  let ep = System.endpoint sys node in
  ep.Tempest.map_page ~vpage:page ~home:node ~mode:0 ~init_tag:Tag.Read_write

(* ---------------- Table 1 semantics ---------------- *)

let test_read_write_permitted () =
  let engine, sys = mk () in
  map_rw sys 0;
  let th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        System.cpu_write_f64 sys ~node:0 th base 2.5;
        Alcotest.(check (float 0.0)) "read back" 2.5
          (System.cpu_read_f64 sys ~node:0 th base))
  in
  Engine.run engine;
  check_bool "finished" true (Thread.finished th)

let test_read_only_allows_loads_blocks_stores () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.force_write_f64 ~vaddr:base 7.0;
  ep.Tempest.set_ro ~vaddr:base;
  (* a store on a ReadOnly block must fault into the mode-0 handler *)
  let faulted = ref None in
  Tempest.Handlers.set_block_fault (System.handlers sys) ~mode:0
    (fun ep fault ->
      faulted := Some (fault.Tempest.fault_access, fault.Tempest.fault_tag);
      (* make it legal and restart the thread (Table 1: set-RW; resume) *)
      ep.Tempest.set_rw ~vaddr:fault.Tempest.fault_vaddr;
      ep.Tempest.resume fault.Tempest.fault_resumption);
  let th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        Alcotest.(check (float 0.0)) "load allowed" 7.0
          (System.cpu_read_f64 sys ~node:0 th base);
        System.cpu_write_f64 sys ~node:0 th base 9.0)
  in
  Engine.run engine;
  check_bool "finished" true (Thread.finished th);
  (match !faulted with
  | Some (Tag.Store, Tag.Read_only) -> ()
  | Some _ -> Alcotest.fail "wrong fault contents"
  | None -> Alcotest.fail "store did not fault");
  Alcotest.(check (float 0.0)) "store landed after resume" 9.0
    (Tt_mem.Pagemem.read_f64 (System.node_mem sys 0) ~vaddr:base)

let test_invalid_blocks_loads () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.invalidate ~vaddr:base;
  let faults = ref 0 in
  Tempest.Handlers.set_block_fault (System.handlers sys) ~mode:0
    (fun ep fault ->
      incr faults;
      ep.Tempest.set_rw ~vaddr:fault.Tempest.fault_vaddr;
      ep.Tempest.resume fault.Tempest.fault_resumption);
  let th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  Engine.run engine;
  check_bool "finished" true (Thread.finished th);
  check_int "one fault" 1 !faults

let test_busy_behaves_like_invalid () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.set_busy ~vaddr:base;
  let observed = ref None in
  Tempest.Handlers.set_block_fault (System.handlers sys) ~mode:0
    (fun ep fault ->
      observed := Some fault.Tempest.fault_tag;
      ep.Tempest.set_rw ~vaddr:fault.Tempest.fault_vaddr;
      ep.Tempest.resume fault.Tempest.fault_resumption);
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  Engine.run engine;
  check_bool "handler saw Busy" true
    (match !observed with Some Tag.Busy -> true | Some _ | None -> false)

let test_force_ops_bypass_tags () =
  let _, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.invalidate ~vaddr:base;
  ep.Tempest.force_write_f64 ~vaddr:base 5.5;
  Alcotest.(check (float 0.0)) "force read" 5.5
    (ep.Tempest.force_read_f64 ~vaddr:base);
  let blk = ep.Tempest.force_read_block ~vaddr:base in
  check_int "block size" 32 (Bytes.length blk)

let test_dirty_observer_cpu_stores_only () =
  (* NP forced writes install values already tracked where they were
     stored, so only CPU stores reach the checkpoint's dirty observer *)
  let engine, sys = mk () in
  map_rw sys 0;
  let seen = ref [] in
  System.set_on_dirty sys (Some (fun ~vpage -> seen := vpage :: !seen));
  let ep = System.endpoint sys 0 in
  ep.Tempest.force_write_f64 ~vaddr:base 1.0;
  ep.Tempest.force_write_i64 ~vaddr:(base + 8) 2L;
  ep.Tempest.force_write_block ~vaddr:(base + 32) (Bytes.make 32 'x');
  check_int "forced writes are not dirty events" 0 (List.length !seen);
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        System.cpu_write_f64 sys ~node:0 th base 3.0;
        System.cpu_write_int sys ~node:0 th (base + 8) 4)
  in
  Engine.run engine;
  Alcotest.(check (list int)) "one event per CPU store" [ page; page ] !seen

let test_read_tag () =
  let _, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  check_bool "RW" true (Tag.equal Tag.Read_write (ep.Tempest.read_tag ~vaddr:base));
  ep.Tempest.set_ro ~vaddr:base;
  check_bool "RO" true (Tag.equal Tag.Read_only (ep.Tempest.read_tag ~vaddr:base));
  ep.Tempest.set_busy ~vaddr:base;
  check_bool "Busy" true (Tag.equal Tag.Busy (ep.Tempest.read_tag ~vaddr:base));
  ep.Tempest.invalidate ~vaddr:base;
  check_bool "Invalid" true
    (Tag.equal Tag.Invalid (ep.Tempest.read_tag ~vaddr:base))

let test_invalidate_drops_cpu_line () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  let block = Addr.block_of base in
  let th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  Engine.run engine;
  ignore th;
  check_bool "line cached after read" true
    (Tt_cache.Cache.probe (System.cpu_cache sys 0) ~block <> None);
  ep.Tempest.invalidate ~vaddr:base;
  check_bool "line dropped" true
    (Tt_cache.Cache.probe (System.cpu_cache sys 0) ~block = None)

let test_tag_granularity_is_per_block () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.invalidate ~vaddr:base;
  (* the adjacent block must stay accessible without a fault *)
  Tempest.Handlers.set_block_fault (System.handlers sys) ~mode:0
    (fun _ _ -> Alcotest.fail "adjacent block must not fault");
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th (base + Addr.block_size)))
  in
  Engine.run engine

(* ---------------- Page faults ---------------- *)

let test_page_fault_dispatch () =
  let engine, sys = mk () in
  let fault_addr = ref 0 in
  Tempest.Handlers.set_page_fault (System.handlers sys)
    (fun ep ~vaddr _access resumption ->
      fault_addr := vaddr;
      ep.Tempest.map_page ~vpage:(Addr.page_of vaddr) ~home:ep.Tempest.node
        ~mode:0 ~init_tag:Tag.Read_write;
      ep.Tempest.resume resumption);
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        System.cpu_write_f64 sys ~node:0 th (base + 128) 1.25;
        Alcotest.(check (float 0.0)) "after page-in" 1.25
          (System.cpu_read_f64 sys ~node:0 th (base + 128)))
  in
  Engine.run engine;
  check_int "fault address" (base + 128) !fault_addr

let test_page_fault_without_handler_fails () =
  let engine, sys = mk () in
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  try
    Engine.run engine;
    Alcotest.fail "expected failure"
  with Thread.Failure_in _ | Invalid_argument _ -> ()

(* A block fault on a mode with no handler stops the run with a message
   naming the address, node and mode; a mode outside the 4-bit range
   cannot be registered. *)
let test_block_fault_without_handler_fails () =
  let engine, sys = mk () in
  (System.endpoint sys 0).Tempest.map_page ~vpage:page ~home:0 ~mode:7
    ~init_tag:Tag.Invalid;
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  (match Engine.run engine with
  | () -> Alcotest.fail "expected failure"
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "diagnostic"
        "Typhoon: block fault at 0x2000000 on node 0, mode 7, but no handler \
         registered"
        msg);
  match
    Tempest.Handlers.set_block_fault (System.handlers sys) ~mode:16
      (fun _ _ -> ())
  with
  | () -> Alcotest.fail "mode 16 registered"
  | exception Invalid_argument _ -> ()

(* ---------------- Messaging and the NP ---------------- *)

let test_active_message_roundtrip () =
  let engine, sys = mk () in
  let got = ref [] in
  let reply = ref (-1) in
  let h_pong =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun _ ~src ~args ~data:_ -> got := (src, args.(0)) :: !got)
  in
  let h_ping =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun ep ~src ~args ~data:_ ->
        ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:!reply
          ~args:[| args.(0) * 2 |] ~data:Bytes.empty)
  in
  reply := h_pong;
  ignore h_ping;
  let ep0 = System.endpoint sys 0 in
  ep0.Tempest.send ~dst:2 ~vnet:Message.Request ~handler:h_ping ~args:[| 21 |]
    ~data:Bytes.empty;
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "pong received" [ (2, 42) ] !got

let test_np_charges_cycles () =
  let engine, sys = mk () in
  let h =
    Tempest.Handlers.register_message (System.handlers sys)
      (fun ep ~src:_ ~args:_ ~data:_ -> ep.Tempest.charge 1000)
  in
  let ep0 = System.endpoint sys 0 in
  ep0.Tempest.send ~dst:1 ~vnet:Message.Request ~handler:h ~args:[||]
    ~data:Bytes.empty;
  Engine.run engine;
  check_bool "np clock advanced by handler" true
    (Np.clock (System.node_np sys 1) >= 1000);
  check_int "one item handled" 1 (Np.handled (System.node_np sys 1));
  check_bool "busy cycles recorded" true
    (Np.busy_cycles (System.node_np sys 1) >= 1000)

let test_np_response_priority () =
  (* queue a request and a response while the NP is busy: the response must
     run first despite arriving later *)
  let engine, sys = mk () in
  let order = ref [] in
  let tables = System.handlers sys in
  let h_block =
    Tempest.Handlers.register_message tables
      (fun ep ~src:_ ~args:_ ~data:_ -> ep.Tempest.charge 500)
  in
  let h_req =
    Tempest.Handlers.register_message tables
      (fun _ ~src:_ ~args:_ ~data:_ -> order := `Req :: !order)
  in
  let h_resp =
    Tempest.Handlers.register_message tables
      (fun _ ~src:_ ~args:_ ~data:_ -> order := `Resp :: !order)
  in
  let ep0 = System.endpoint sys 0 in
  ep0.Tempest.send ~dst:1 ~vnet:Message.Request ~handler:h_block ~args:[||]
    ~data:Bytes.empty;
  (* both of these arrive while the NP is executing h_block *)
  Engine.after engine 5 (fun () ->
      let ep2 = System.endpoint sys 2 in
      ep2.Tempest.send ~dst:1 ~vnet:Message.Request ~handler:h_req ~args:[||]
        ~data:Bytes.empty);
  Engine.after engine 10 (fun () ->
      let ep3 = System.endpoint sys 3 in
      ep3.Tempest.send ~dst:1 ~vnet:Message.Response ~handler:h_resp
        ~args:[||] ~data:Bytes.empty);
  Engine.run engine;
  Alcotest.(check bool) "response ran before request" true
    (!order = [ `Req; `Resp ] (* reversed: Resp first *))

let test_bulk_transfer_end_to_end () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep1 = System.endpoint sys 1 in
  ep1.Tempest.map_page ~vpage:page ~home:1 ~mode:0 ~init_tag:Tag.Read_write;
  let mem0 = System.node_mem sys 0 in
  let len = 500 (* deliberately not a multiple of 64 *) in
  for i = 0 to (len / 8) - 1 do
    Tt_mem.Pagemem.write_f64 mem0 ~vaddr:(base + (i * 8)) (float_of_int i)
  done;
  let completed = ref false in
  let ep0 = System.endpoint sys 0 in
  ep0.Tempest.bulk_transfer ~dst:1 ~src_va:base ~dst_va:base ~len
    ~on_complete:(fun () -> completed := true);
  Engine.run engine;
  check_bool "completion fired" true !completed;
  let mem1 = System.node_mem sys 1 in
  for i = 0 to (len / 8) - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "word %d" i)
      (float_of_int i)
      (Tt_mem.Pagemem.read_f64 mem1 ~vaddr:(base + (i * 8)))
  done

let test_force_write_invalidates_cpu_line () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  let block = Addr.block_of base in
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  Engine.run engine;
  check_bool "cached" true
    (Tt_cache.Cache.probe (System.cpu_cache sys 0) ~block <> None);
  ep.Tempest.force_write_block ~vaddr:base (Bytes.make 32 'x');
  check_bool "stale line dropped" true
    (Tt_cache.Cache.probe (System.cpu_cache sys 0) ~block = None)

let test_unmap_flushes_cache_and_tlb () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  let block = Addr.block_of base in
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base))
  in
  Engine.run engine;
  ep.Tempest.unmap_page ~vpage:page;
  check_bool "cache flushed" true
    (Tt_cache.Cache.probe (System.cpu_cache sys 0) ~block = None);
  check_bool "tlb flushed" false (Tt_mem.Tlb.probe (System.cpu_tlb sys 0) page);
  check_bool "unmapped" false (ep.Tempest.page_mapped ~vpage:page)

let test_local_miss_cost () =
  (* a cached-page read: 1 instr + TLB miss (25) + local miss (29), then a
     hit costs 1 instr only *)
  let engine, sys = mk () in
  map_rw sys 0;
  let costs = ref [] in
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        let c0 = Thread.clock th in
        ignore (System.cpu_read_f64 sys ~node:0 th base);
        let c1 = Thread.clock th in
        ignore (System.cpu_read_f64 sys ~node:0 th base);
        let c2 = Thread.clock th in
        costs := [ c1 - c0; c2 - c1 ])
  in
  Engine.run engine;
  match !costs with
  | [ miss; hit ] ->
      check_int "cold access = instr + tlb + miss" (1 + 25 + 29) miss;
      check_int "hit = instr" 1 hit
  | _ -> Alcotest.fail "missing measurements"

let test_upgrade_cost () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.set_ro ~vaddr:base;
  (* read loads the line Shared; then RW tag + write hit-on-shared = upgrade *)
  let upgrade_cost = ref 0 in
  let _th =
    Thread.spawn engine ~name:"cpu0" (fun th ->
        ignore (System.cpu_read_f64 sys ~node:0 th base);
        System.with_cpu_context sys ~node:0 th (fun () ->
            ep.Tempest.set_rw ~vaddr:base);
        let c0 = Thread.clock th in
        System.cpu_write_f64 sys ~node:0 th base 1.0;
        upgrade_cost := Thread.clock th - c0)
  in
  Engine.run engine;
  check_int "upgrade = instr + bus invalidate"
    (1 + Params.default.Params.upgrade)
    !upgrade_cost;
  check_int "upgrade counted" 1
    (Tt_util.Stats.get (System.node_stats sys 0) "upgrades")

(* A warmed hit must stay inside the tag/cache check: no closure, option
   or boxed word per access.  Alternating two pages makes every access
   miss the one-entry translation memos and go through the page tables. *)
let test_hit_path_allocates_nothing () =
  let engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  ep.Tempest.map_page ~vpage:(page + 1) ~home:0 ~mode:0
    ~init_tag:Tag.Read_write;
  let other = base + Addr.page_size in
  let words = ref nan and ints = ref nan in
  let th =
    Thread.spawn engine ~quantum:max_int ~name:"cpu0" (fun th ->
        List.iter
          (fun va ->
            System.cpu_access sys ~node:0 th Tag.Store va;
            System.cpu_access sys ~node:0 th Tag.Load va)
          [ base; other ];
        let before = Gc.minor_words () in
        for _ = 1 to 2_500 do
          System.cpu_access sys ~node:0 th Tag.Load base;
          System.cpu_access sys ~node:0 th Tag.Store other;
          System.cpu_access sys ~node:0 th Tag.Store base;
          System.cpu_access sys ~node:0 th Tag.Load other
        done;
        words := Gc.minor_words () -. before;
        let before = Gc.minor_words () in
        for i = 1 to 5_000 do
          System.cpu_write_int sys ~node:0 th base i;
          ignore (System.cpu_read_int sys ~node:0 th other)
        done;
        ints := Gc.minor_words () -. before)
  in
  Engine.run engine;
  check_bool "finished" true (Thread.finished th);
  Alcotest.(check (float 0.)) "minor words over 10k cpu_access hits" 0. !words;
  Alcotest.(check (float 0.)) "minor words over 10k int reads/writes" 0. !ints

let () =
  Alcotest.run "typhoon"
    [
      ( "table1",
        [
          Alcotest.test_case "read/write permitted" `Quick test_read_write_permitted;
          Alcotest.test_case "RO: loads yes, stores fault" `Quick
            test_read_only_allows_loads_blocks_stores;
          Alcotest.test_case "Invalid blocks loads" `Quick test_invalid_blocks_loads;
          Alcotest.test_case "Busy behaves like Invalid" `Quick
            test_busy_behaves_like_invalid;
          Alcotest.test_case "force ops bypass tags" `Quick
            test_force_ops_bypass_tags;
          Alcotest.test_case "dirty observer: CPU stores only" `Quick
            test_dirty_observer_cpu_stores_only;
          Alcotest.test_case "read-tag" `Quick test_read_tag;
          Alcotest.test_case "invalidate drops CPU line" `Quick
            test_invalidate_drops_cpu_line;
          Alcotest.test_case "per-block granularity" `Quick
            test_tag_granularity_is_per_block;
        ] );
      ( "paging",
        [
          Alcotest.test_case "page fault dispatch" `Quick test_page_fault_dispatch;
          Alcotest.test_case "missing handler fails loudly" `Quick
            test_page_fault_without_handler_fails;
          Alcotest.test_case "missing block-fault handler named" `Quick
            test_block_fault_without_handler_fails;
          Alcotest.test_case "unmap flushes cache+TLB" `Quick
            test_unmap_flushes_cache_and_tlb;
        ] );
      ( "np",
        [
          Alcotest.test_case "active message roundtrip" `Quick
            test_active_message_roundtrip;
          Alcotest.test_case "handler charges NP cycles" `Quick
            test_np_charges_cycles;
          Alcotest.test_case "response priority" `Quick test_np_response_priority;
          Alcotest.test_case "bulk transfer end-to-end" `Quick
            test_bulk_transfer_end_to_end;
          Alcotest.test_case "force-write keeps CPU cache coherent" `Quick
            test_force_write_invalidates_cpu_line;
        ] );
      ( "costs",
        [
          Alcotest.test_case "local miss cost" `Quick test_local_miss_cost;
          Alcotest.test_case "upgrade cost" `Quick test_upgrade_cost;
          Alcotest.test_case "hit path allocates nothing" `Quick
            test_hit_path_allocates_nothing;
        ] );
    ]
