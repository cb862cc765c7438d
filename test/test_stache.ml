(* Tests for the Stache user-level protocol: sharer representation, page
   management, coherence flows, FIFO replacement, invariants under random
   workloads. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module System = Tt_typhoon.System
module Stache = Tt_stache.Stache
module Sharers = Tt_stache.Sharers
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(nodes = 4) ?(cache = 256 * 1024) ?max_stache_pages () =
  let engine = Engine.create () in
  let sys =
    System.create engine
      { Params.default with
        Params.nodes; cpu_cache_bytes = cache;
        stache_max_pages = max_stache_pages }
  in
  let st = Stache.install sys in
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
    threads

let assert_invariants st =
  match Stache.check_invariants st with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ---------------- Sharers ---------------- *)

let test_sharers_pointers () =
  let s = Sharers.create ~nodes:32 in
  check_bool "empty" true (Sharers.is_empty s);
  List.iter (Sharers.add s) [ 3; 1; 7 ];
  Sharers.add s 3 (* duplicate ignored *);
  check_int "count" 3 (Sharers.count s);
  Alcotest.(check (list int)) "sorted pointers" [ 1; 3; 7 ] (Sharers.to_list s);
  check_bool "not overflowed at 3" false (Sharers.is_overflowed s);
  Sharers.remove s 3;
  check_bool "removed" false (Sharers.mem s 3)

let test_sharers_overflow_at_seven () =
  let s = Sharers.create ~nodes:32 in
  for n = 0 to 5 do
    Sharers.add s n
  done;
  check_bool "6 pointers fit" false (Sharers.is_overflowed s);
  Sharers.add s 6;
  check_bool "7th overflows to bit vector" true (Sharers.is_overflowed s);
  check_int "one overflow event" 1 (Sharers.overflow_events s);
  check_int "all preserved" 7 (Sharers.count s);
  Alcotest.(check (list int)) "contents preserved" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Sharers.to_list s);
  Sharers.clear s;
  check_bool "clear resets to pointers" false (Sharers.is_overflowed s)

(* Sharers against a model: a sorted list of unique nodes plus the sticky
   "overflowed" bit that the seventh distinct sharer sets until [clear].
   Ten nodes and long op lists cross the six-pointer overflow often. *)
let prop_sharers_model =
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map (fun n -> `Add n) (int_range 0 9));
          (3, map (fun n -> `Remove n) (int_range 0 9)); (1, return `Clear) ])
  in
  QCheck.Test.make ~name:"sharers agree with a sorted-list model" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op))
    (fun ops ->
      let s = Sharers.create ~nodes:10 in
      let model = ref [] and vector = ref false and overflows = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | `Add n ->
              if not (List.mem n !model) then begin
                if (not !vector) && List.length !model = 6 then begin
                  vector := true;
                  incr overflows
                end;
                model := List.sort compare (n :: !model)
              end;
              Sharers.add s n
          | `Remove n ->
              model := List.filter (( <> ) n) !model;
              Sharers.remove s n
          | `Clear ->
              model := [];
              vector := false;
              Sharers.clear s);
          Sharers.to_list s = !model
          && Sharers.count s = List.length !model
          && Sharers.is_overflowed s = !vector
          && Sharers.overflow_events s = !overflows
          && List.for_all
               (fun n -> Sharers.mem s n = List.mem n !model)
               (List.init 10 Fun.id))
        ops)

let test_sharers_range () =
  let s = Sharers.create ~nodes:4 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sharers.add: node out of range") (fun () ->
      Sharers.add s 4)

(* ---------------- Allocation and page management ---------------- *)

let test_alloc_maps_home_page () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th -> va := Stache.alloc st ~th ~node:0 ~home:2 ~bytes:64 ());
      (fun _ -> ()); (fun _ -> ()); (fun _ -> ());
    |];
  let vpage = Addr.page_of !va in
  check_int "registry knows the home" 2 (Stache.home_of st ~vaddr:!va);
  check_bool "home page mapped at home" true
    (Tt_mem.Pagemem.is_mapped (System.node_mem sys 2) ~vpage);
  check_bool "not mapped elsewhere" false
    (Tt_mem.Pagemem.is_mapped (System.node_mem sys 0) ~vpage);
  let page = Tt_mem.Pagemem.get_page (System.node_mem sys 2) ~vpage in
  check_int "home page mode" Stache.mode_home page.Tt_mem.Pagemem.mode;
  check_bool "home tags ReadWrite" true
    (Tag.equal Tag.Read_write
       (Tt_mem.Pagemem.get_tag (System.node_mem sys 2) ~vaddr:!va))

let test_first_remote_touch_creates_stache_page () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 4.25;
        Thread.yield th);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        Alcotest.(check (float 0.0)) "remote read sees data" 4.25
          (System.cpu_read_f64 sys ~node:1 th !va));
      (fun _ -> ()); (fun _ -> ());
    |];
  let vpage = Addr.page_of !va in
  check_bool "stache page mapped" true
    (Tt_mem.Pagemem.is_mapped (System.node_mem sys 1) ~vpage);
  let page = Tt_mem.Pagemem.get_page (System.node_mem sys 1) ~vpage in
  check_int "stache page mode" Stache.mode_remote page.Tt_mem.Pagemem.mode;
  check_bool "fetched block RO" true
    (Tag.equal Tag.Read_only
       (Tt_mem.Pagemem.get_tag (System.node_mem sys 1) ~vaddr:!va));
  (* other blocks of the page stay Invalid *)
  check_bool "other blocks Invalid" true
    (Tag.equal Tag.Invalid
       (Tt_mem.Pagemem.get_tag (System.node_mem sys 1)
          ~vaddr:(!va + Addr.block_size)));
  assert_invariants st

let test_remote_write_gets_exclusive () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        System.cpu_write_f64 sys ~node:1 th !va 2.0);
      (fun _ -> ()); (fun _ -> ());
    |];
  check_bool "writer holds RW" true
    (Tag.equal Tag.Read_write
       (Tt_mem.Pagemem.get_tag (System.node_mem sys 1) ~vaddr:!va));
  check_bool "home tag Invalid" true
    (Tag.equal Tag.Invalid
       (Tt_mem.Pagemem.get_tag (System.node_mem sys 0) ~vaddr:!va));
  assert_invariants st

let test_home_refetches_from_remote_owner () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  let seen = ref 0.0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th;
        (* wait until node 1 has taken the block exclusively *)
        Thread.advance th 10_000;
        Thread.yield th;
        seen := System.cpu_read_f64 sys ~node:0 th !va);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        System.cpu_write_f64 sys ~node:1 th !va 3.5);
      (fun _ -> ()); (fun _ -> ());
    |];
  Alcotest.(check (float 0.0)) "home read recalls owner's data" 3.5 !seen;
  check_bool "home fault counted" true (Stats.get (Stache.stats st) "home_faults" >= 1);
  check_bool "a recall happened" true (Stats.get (Stache.stats st) "recall" >= 1);
  assert_invariants st

let test_upgrade_message_flow () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        (* read then write: the write is an upgrade of the RO copy *)
        ignore (System.cpu_read_f64 sys ~node:1 th !va);
        System.cpu_write_f64 sys ~node:1 th !va 2.0);
      (fun _ -> ()); (fun _ -> ());
    |];
  check_bool "upgrade counted" true (Stats.get (Stache.stats st) "upgrade" >= 1);
  assert_invariants st

let test_page_replacement_fifo_and_writeback () =
  (* node 1 may hold only 2 stache pages; touching 3 shared pages evicts the
     first (FIFO) and flushes its modified block home *)
  let engine, sys, st = mk ~max_stache_pages:2 () in
  let vas = Array.make 3 0 in
  run_cpus engine
    [|
      (fun th ->
        for i = 0 to 2 do
          vas.(i) <-
            Stache.alloc st ~th ~node:0 ~home:0 ~bytes:Addr.page_size
              ~align:Addr.page_size ();
          System.cpu_write_f64 sys ~node:0 th vas.(i) 0.0
        done;
        Thread.yield th);
      (fun th ->
        Thread.advance th 3000;
        Thread.yield th;
        (* dirty page 0, then touch pages 1 and 2 *)
        System.cpu_write_f64 sys ~node:1 th vas.(0) 42.0;
        ignore (System.cpu_read_f64 sys ~node:1 th vas.(1));
        ignore (System.cpu_read_f64 sys ~node:1 th vas.(2));
        Thread.yield th);
      (fun _ -> ()); (fun _ -> ());
    |];
  check_bool "page 0 evicted (FIFO)" false
    (Tt_mem.Pagemem.is_mapped (System.node_mem sys 1)
       ~vpage:(Addr.page_of vas.(0)));
  check_bool "pages 1,2 resident" true
    (Tt_mem.Pagemem.is_mapped (System.node_mem sys 1)
       ~vpage:(Addr.page_of vas.(1))
    && Tt_mem.Pagemem.is_mapped (System.node_mem sys 1)
         ~vpage:(Addr.page_of vas.(2)));
  check_int "one replacement" 1 (Stats.get (Stache.stats st) "page_replacements");
  check_bool "writeback sent" true (Stats.get (Stache.stats st) "writeback" >= 1);
  (* the dirty datum made it home *)
  Alcotest.(check (float 0.0)) "modified data flushed home" 42.0
    (Tt_mem.Pagemem.read_f64 (System.node_mem sys 0) ~vaddr:vas.(0));
  assert_invariants st

let test_many_sharers_overflow_and_invalidate () =
  (* 8 nodes read the same block (> 6 sharers: bit-vector), then the home
     writes, invalidating everyone *)
  let nodes = 8 in
  let engine, sys, st = mk ~nodes () in
  let va = ref 0 in
  let barrier = Tt_sim.Barrier.create engine ~participants:nodes ~latency:11 in
  let bodies =
    Array.init nodes (fun node th ->
        if node = 0 then begin
          va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
          System.cpu_write_f64 sys ~node:0 th !va 1.5
        end;
        Tt_sim.Barrier.wait barrier th;
        if node > 0 then
          Alcotest.(check (float 0.0)) "all read" 1.5
            (System.cpu_read_f64 sys ~node th !va);
        Tt_sim.Barrier.wait barrier th;
        if node = 0 then System.cpu_write_f64 sys ~node:0 th !va 2.5;
        Tt_sim.Barrier.wait barrier th;
        if node > 0 then
          Alcotest.(check (float 0.0)) "all see new value" 2.5
            (System.cpu_read_f64 sys ~node th !va))
  in
  run_cpus engine (Array.map (fun b -> fun th -> b th) bodies);
  check_bool "7 sharers sent invals" true
    (Stats.get (Stache.stats st) "inval" >= 7);
  assert_invariants st

let test_message_count_for_clean_fetch () =
  (* one remote read of a clean block: exactly 1 request + 1 response *)
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        ignore (System.cpu_read_f64 sys ~node:1 th !va));
      (fun _ -> ()); (fun _ -> ());
    |];
  let net = Tt_net.Fabric.stats (System.fabric sys) in
  check_int "one request" 1 (Stats.get net "msgs.request");
  check_int "one response" 1 (Stats.get net "msgs.response")

(* Corner: the owner's page is replaced (writeback in flight) while the
   home is recalling the block.  FIFO ordering means the writeback lands
   first; the recall is answered with a nack and the reader still sees the
   modified value. *)
let test_recall_races_page_replacement () =
  let engine, sys, st = mk ~max_stache_pages:1 () in
  let vas = Array.make 2 0 in
  run_cpus engine
    [|
      (fun th ->
        vas.(0) <-
          Stache.alloc st ~th ~node:0 ~home:0 ~bytes:Addr.page_size
            ~align:Addr.page_size ();
        vas.(1) <-
          Stache.alloc st ~th ~node:0 ~home:0 ~bytes:Addr.page_size
            ~align:Addr.page_size ();
        System.cpu_write_f64 sys ~node:0 th vas.(0) 1.0;
        Thread.yield th;
        (* wait until node 1 owns block 0 of page 0 exclusively *)
        Thread.advance th 10_000;
        Thread.yield th;
        (* home read fault: sends a recall to node 1 *)
        Alcotest.(check (float 0.0)) "home reads the modified value" 21.0
          (System.cpu_read_f64 sys ~node:0 th vas.(0)));
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        (* take page 0's block exclusively, then immediately touch page 1 so
           the 1-page stache replaces page 0 (writeback) *)
        System.cpu_write_f64 sys ~node:1 th vas.(0) 21.0;
        ignore (System.cpu_read_f64 sys ~node:1 th vas.(1)));
      (fun _ -> ()); (fun _ -> ());
    |];
  check_bool "a replacement happened" true
    (Stats.get (Stache.stats st) "page_replacements" >= 1);
  check_bool "the modified block was written back" true
    (Stats.get (Stache.stats st) "writeback" >= 1);
  assert_invariants st

(* ---------------- Randomized coherence oracle ---------------- *)

let prop_random_coherence =
  QCheck.Test.make
    ~name:"random programs match the sequential oracle and keep invariants"
    ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let nodes = 4 in
      let engine = Engine.create () in
      let sys =
        System.create engine
          { Params.default with Params.nodes; cpu_cache_bytes = 4096;
            seed = seed + 1 }
      in
      let st = Stache.install sys in
      let words = 256 in
      let va = ref 0 in
      let lock = Tt_sim.Lock.create engine () in
      let barrier = Tt_sim.Barrier.create engine ~participants:nodes ~latency:11 in
      (* model: each slot counts its increments; reads check a plausible
         value is visible (monotonicity is guaranteed by the lock) *)
      let final = Array.make words 0.0 in
      let body node th =
        if node = 0 then begin
          va := Stache.alloc st ~th ~node:0 ~bytes:(words * 8) ();
          for w = 0 to words - 1 do
            System.cpu_write_f64 sys ~node:0 th (!va + (w * 8)) 0.0
          done
        end;
        Tt_sim.Barrier.wait barrier th;
        let prng = Tt_util.Prng.create ~seed:(seed * 31 + node) in
        for _op = 1 to 150 do
          let w = Tt_util.Prng.int prng words in
          let a = !va + (w * 8) in
          if Tt_util.Prng.bool prng then
            ignore (System.cpu_read_f64 sys ~node th a)
          else begin
            Tt_sim.Lock.acquire lock th;
            System.cpu_write_f64 sys ~node th a
              (System.cpu_read_f64 sys ~node th a +. 1.0);
            Tt_sim.Lock.release lock th
          end
        done;
        Tt_sim.Barrier.wait barrier th;
        if node = 0 then
          for w = 0 to words - 1 do
            final.(w) <- System.cpu_read_f64 sys ~node:0 th (!va + (w * 8))
          done
      in
      let threads =
        Array.init nodes (fun i ->
            Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) (body i))
      in
      Engine.run engine;
      (* oracle: replay the increments per slot *)
      let expect = Array.make words 0.0 in
      for node = 0 to nodes - 1 do
        let prng = Tt_util.Prng.create ~seed:(seed * 31 + node) in
        for _op = 1 to 150 do
          let w = Tt_util.Prng.int prng words in
          if not (Tt_util.Prng.bool prng) then expect.(w) <- expect.(w) +. 1.0
        done
      done;
      Array.for_all Thread.finished threads
      && Stache.check_invariants st = Ok ()
      && final = expect)

(* ---------------- Audit failures ---------------- *)

(* A quiesced machine with one page homed on node 0: node 1 holds block A
   read-only (directory: Shared, sharers {1}) and node 2 holds block B
   exclusively (Remote_excl 2).  The audit passes; each test then plants
   one inconsistency and expects the audit's first-failure message. *)
let quiesced_audit_machine () =
  let engine, sys, st = mk () in
  let va = ref 0 in
  run_cpus engine
    [|
      (fun th ->
        va := Stache.alloc st ~th ~node:0 ~home:0 ~bytes:64 ();
        System.cpu_write_f64 sys ~node:0 th !va 1.0;
        Thread.yield th);
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        ignore (System.cpu_read_f64 sys ~node:1 th !va));
      (fun th ->
        Thread.advance th 2000;
        Thread.yield th;
        System.cpu_write_f64 sys ~node:2 th (!va + Addr.block_size) 2.0);
      (fun _ -> ());
    |];
  assert_invariants st;
  (sys, st, !va, !va + Addr.block_size)

let expect_audit_error st msg =
  match Stache.check_invariants st with
  | Ok () -> Alcotest.fail ("audit passed, expected: " ^ msg)
  | Error got -> Alcotest.(check string) "first failure" msg got

let set_tag sys ~node ~vaddr tag =
  Tt_mem.Pagemem.set_tag (System.node_mem sys node) ~vaddr tag

let test_audit_second_rw_copy () =
  let sys, st, _, b = quiesced_audit_machine () in
  set_tag sys ~node:1 ~vaddr:b Tag.Read_write;
  expect_audit_error st
    (Printf.sprintf "block 0x%x: writable copies at multiple nodes (1, 2)" b)

let test_audit_ro_copy_at_non_sharer () =
  let sys, st, a, _ = quiesced_audit_machine () in
  set_tag sys ~node:2 ~vaddr:a Tag.Read_only;
  expect_audit_error st
    (Printf.sprintf "block 0x%x: node 2 has RO copy but is not a sharer" a)

let test_audit_stuck_busy () =
  let sys, st, a, _ = quiesced_audit_machine () in
  set_tag sys ~node:1 ~vaddr:a Tag.Busy;
  expect_audit_error st (Printf.sprintf "block 0x%x: node 1 stuck Busy" a)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stache"
    [
      ( "sharers",
        [
          Alcotest.test_case "pointer representation" `Quick test_sharers_pointers;
          Alcotest.test_case "overflow at 7 sharers" `Quick
            test_sharers_overflow_at_seven;
          Alcotest.test_case "range check" `Quick test_sharers_range;
          qc prop_sharers_model;
        ] );
      ( "pages",
        [
          Alcotest.test_case "alloc maps home page" `Quick test_alloc_maps_home_page;
          Alcotest.test_case "first remote touch" `Quick
            test_first_remote_touch_creates_stache_page;
          Alcotest.test_case "FIFO replacement + writeback" `Quick
            test_page_replacement_fifo_and_writeback;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "remote write gets exclusive" `Quick
            test_remote_write_gets_exclusive;
          Alcotest.test_case "home refetches from owner" `Quick
            test_home_refetches_from_remote_owner;
          Alcotest.test_case "upgrade flow" `Quick test_upgrade_message_flow;
          Alcotest.test_case "sharer overflow + broadcast invalidate" `Quick
            test_many_sharers_overflow_and_invalidate;
          Alcotest.test_case "clean fetch = 2 messages" `Quick
            test_message_count_for_clean_fetch;
          Alcotest.test_case "recall races page replacement" `Quick
            test_recall_races_page_replacement;
        ] );
      ( "audit",
        [
          Alcotest.test_case "second RW copy" `Quick test_audit_second_rw_copy;
          Alcotest.test_case "RO copy at a non-sharer" `Quick
            test_audit_ro_copy_at_non_sharer;
          Alcotest.test_case "stuck Busy tag" `Quick test_audit_stuck_busy;
        ] );
      ("random", [ qc prop_random_coherence ]);
    ]
