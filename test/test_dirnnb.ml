(* Tests for the DirNNB all-hardware directory machine: cost formulas,
   protocol flows, invariants under randomized workloads. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Dirnnb = Tt_dirnnb.System
module Directory = Tt_dirnnb.Directory
module Addr = Tt_mem.Addr
module Bitset = Tt_util.Bitset
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(nodes = 4) ?(cache = 256 * 1024) () =
  let engine = Engine.create () in
  let sys =
    Dirnnb.create engine
      { Params.default with Params.nodes; cpu_cache_bytes = cache }
  in
  (engine, sys)

let page = 0x3000

let base = page * Addr.page_size

(* run one thread per node in lockstep-ish; bodies index by node *)
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

let test_local_clean_miss_cost () =
  let engine, sys = mk () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let cost = ref 0 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          let c0 = Thread.clock th in
          ignore (Dirnnb.cpu_read_f64 sys ~node:0 th base);
          cost := Thread.clock th - c0);
      |]
  in
  check_int "instr + tlb + local miss" (1 + 25 + 29) !cost

let test_remote_clean_miss_cost () =
  let engine, sys = mk ~nodes:2 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:1;
  let cost = ref 0 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          let c0 = Thread.clock th in
          ignore (Dirnnb.cpu_read_f64 sys ~node:0 th base);
          cost := Thread.clock th - c0);
        (fun _ -> ());
      |]
  in
  (* instr 1 + tlb 25 + base 23 + net 11 + dir(16 + per_msg 5 + block_send 11)
     + ctrl reply charge 1 at requester? (charged to ctrl) + net 11 + finish 34 *)
  let p = Params.default in
  let expect =
    1 + 25 + p.Params.remote_miss_base + p.Params.net_latency
    + p.Params.dir_op + p.Params.dir_per_msg + p.Params.dir_block_send
    + p.Params.net_latency + 1 + p.Params.remote_miss_finish
  in
  check_int "Table 2 remote miss formula" expect !cost

let test_read_then_write_invalidates_sharer () =
  let engine, sys = mk ~nodes:3 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let phase = Tt_sim.Barrier.create engine ~participants:3 ~latency:11 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          (* home writes, establishing ownership *)
          Dirnnb.cpu_write_f64 sys ~node:0 th base 1.0;
          Tt_sim.Barrier.wait phase th;
          (* reader has a copy now *)
          Tt_sim.Barrier.wait phase th;
          (* write again: must invalidate node 1 *)
          Dirnnb.cpu_write_f64 sys ~node:0 th base 2.0;
          Tt_sim.Barrier.wait phase th);
        (fun th ->
          Tt_sim.Barrier.wait phase th;
          Alcotest.(check (float 0.0)) "reader sees value" 1.0
            (Dirnnb.cpu_read_f64 sys ~node:1 th base);
          Tt_sim.Barrier.wait phase th;
          Tt_sim.Barrier.wait phase th;
          Alcotest.(check (float 0.0)) "reader sees new value" 2.0
            (Dirnnb.cpu_read_f64 sys ~node:1 th base));
        (fun th ->
          Tt_sim.Barrier.wait phase th;
          Tt_sim.Barrier.wait phase th;
          Tt_sim.Barrier.wait phase th);
      |]
  in
  check_bool "an invalidation was delivered" true
    (Stats.get (Dirnnb.node_stats sys 1) "invals_received" >= 1);
  match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_recall_from_remote_owner () =
  let engine, sys = mk ~nodes:3 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let phase = Tt_sim.Barrier.create engine ~participants:2 ~latency:11 in
  let _ =
    run_cpus engine
      [|
        (fun _ -> ());
        (fun th ->
          Dirnnb.cpu_write_f64 sys ~node:1 th base 5.0;
          Tt_sim.Barrier.wait phase th);
        (fun th ->
          Tt_sim.Barrier.wait phase th;
          Alcotest.(check (float 0.0)) "recalled value" 5.0
            (Dirnnb.cpu_read_f64 sys ~node:2 th base));
      |]
  in
  check_bool "a recall happened" true
    (Stats.get (Dirnnb.node_stats sys 0) "recalls" >= 1);
  (* after a read recall the old owner keeps a shared copy *)
  let entry = Directory.entry (Dirnnb.directory sys 0) ~block:(Addr.block_of base) in
  check_bool "owner cleared" true (entry.Directory.owner = None);
  check_bool "both are sharers" true
    (Bitset.mem entry.Directory.sharers 1 && Bitset.mem entry.Directory.sharers 2);
  match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_eviction_writeback_updates_directory () =
  (* tiny cache forces exclusive evictions; the directory must track them *)
  let engine, sys = mk ~nodes:2 ~cache:4096 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  Dirnnb.map_shared_page sys ~vpage:(page + 1) ~home:0;
  let _ =
    run_cpus engine
      [|
        (fun _ -> ());
        (fun th ->
          (* write far more blocks than a 4 KB cache holds *)
          for i = 0 to 511 do
            Dirnnb.cpu_write_f64 sys ~node:1 th (base + (i * 16)) 1.0
          done);
      |]
  in
  check_bool "writebacks happened" true
    (Stats.get (Dirnnb.node_stats sys 1) "writebacks" > 0);
  match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_alloc_round_robin () =
  let engine, sys = mk ~nodes:4 () in
  let homes = ref [] in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          for _ = 1 to 4 do
            let va = Dirnnb.alloc sys ~th ~node:0 ~bytes:Addr.page_size () in
            homes := Dirnnb.page_home sys ~vpage:(Addr.page_of va) :: !homes
          done);
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ());
      |]
  in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3 ] (List.rev !homes)

let test_alloc_pinned_home () =
  let engine, sys = mk ~nodes:4 () in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          let va = Dirnnb.alloc sys ~th ~node:0 ~home:3 ~bytes:64 () in
          check_int "pinned" 3 (Dirnnb.page_home sys ~vpage:(Addr.page_of va)));
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ());
      |]
  in
  ()

(* Randomized workload: invariants must hold at quiescence and all values
   must match a sequential model (writes are serialized by a lock). *)
let prop_random_program =
  QCheck.Test.make ~name:"random shared accesses keep invariants" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let nodes = 4 in
      let engine = Engine.create () in
      let sys =
        Dirnnb.create engine
          { Params.default with Params.nodes; cpu_cache_bytes = 4096; seed = seed + 1 }
      in
      Dirnnb.map_shared_page sys ~vpage:page ~home:0;
      Dirnnb.map_shared_page sys ~vpage:(page + 1) ~home:1;
      let lock = Tt_sim.Lock.create engine () in
      let body node th =
        let prng = Tt_util.Prng.create ~seed:(seed + node) in
        for _op = 1 to 200 do
          let va = base + (Tt_util.Prng.int prng 1024 * 8) in
          if Tt_util.Prng.bool prng then
            ignore (Dirnnb.cpu_read_f64 sys ~node th va)
          else begin
            Tt_sim.Lock.acquire lock th;
            Dirnnb.cpu_write_f64 sys ~node th va
              (Dirnnb.cpu_read_f64 sys ~node th va +. 1.0);
            Tt_sim.Lock.release lock th
          end
        done
      in
      let threads =
        Array.init nodes (fun i ->
            Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) (body i))
      in
      Engine.run engine;
      Array.for_all Thread.finished threads
      && Dirnnb.check_invariants sys = Ok ())

(* A warmed hit, local-home or remote-home, allocates nothing; alternating
   the two pages makes every access re-resolve its page home. *)
let test_hit_path_allocates_nothing () =
  let engine, sys = mk ~nodes:2 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  Dirnnb.map_shared_page sys ~vpage:(page + 1) ~home:1;
  let remote = base + Addr.page_size in
  let words = ref nan and ints = ref nan in
  let th =
    (* an unbounded quantum: no yield (and its continuation) mid-loop *)
    Thread.spawn engine ~quantum:max_int ~name:"cpu0" (fun th ->
          List.iter
            (fun va ->
              Dirnnb.cpu_access sys ~node:0 th Tt_mem.Tag.Store va;
              Dirnnb.cpu_access sys ~node:0 th Tt_mem.Tag.Load va)
            [ base; remote ];
          let before = Gc.minor_words () in
          for _ = 1 to 2_500 do
            Dirnnb.cpu_access sys ~node:0 th Tt_mem.Tag.Load base;
            Dirnnb.cpu_access sys ~node:0 th Tt_mem.Tag.Store remote;
            Dirnnb.cpu_access sys ~node:0 th Tt_mem.Tag.Store base;
            Dirnnb.cpu_access sys ~node:0 th Tt_mem.Tag.Load remote
          done;
          words := Gc.minor_words () -. before;
          let before = Gc.minor_words () in
          for i = 1 to 5_000 do
            Dirnnb.cpu_write_int sys ~node:0 th remote i;
            ignore (Dirnnb.cpu_read_int sys ~node:0 th base)
          done;
          ints := Gc.minor_words () -. before)
  in
  Engine.run engine;
  check_bool "finished" true (Thread.finished th);
  Alcotest.(check (float 0.)) "minor words over 10k cpu_access hits" 0. !words;
  Alcotest.(check (float 0.)) "minor words over 10k int reads/writes" 0. !ints

(* The CPU-side page-home memo must not outlive a re-homing: node 0 reads
   page P from home 1, node 1 crashes and P moves to node 2 (restored from
   a checkpoint holding a different value), and node 0's next read of P,
   a cache hit with the memo still naming node 1, must reach node 2. *)
let test_rehome_invalidates_home_memo () =
  let engine, sys = mk ~nodes:3 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:1;
  Tt_mem.Pagemem.write_f64 (Dirnnb.home_mem sys 1) ~vaddr:base 1.0;
  let first = ref nan and second = ref nan in
  let read_into r =
    [|
      (fun th -> r := Dirnnb.cpu_read_f64 sys ~node:0 th base);
      (fun _ -> ());
      (fun _ -> ());
    |]
  in
  let _ = run_cpus engine (read_into first) in
  Alcotest.(check (float 0.)) "read from the first home" 1.0 !first;
  let snapshot = Bytes.make Addr.page_size '\000' in
  Bytes.set_int64_le snapshot 0 (Int64.bits_of_float 2.0);
  Dirnnb.set_is_dead sys (fun n -> n = 1);
  Dirnnb.on_node_death sys ~dead:1 ~new_home:2 ~restore:(fun ~vpage ->
      if vpage = page then Some snapshot else None);
  check_int "page re-homed" 2 (Dirnnb.page_home sys ~vpage:page);
  let _ = run_cpus engine (read_into second) in
  Alcotest.(check (float 0.)) "next read reaches the new home" 2.0 !second

(* The page-indexed rows in front of the directory's table: [entry] returns
   the same physical entry on every call, [find] never creates one, and
   [iter] walks in the order of an Inttbl fed the same insertions — blocks
   of pages around the heap base, below it and far above it (outside the
   dense window). *)
let prop_directory_rows =
  let base = 0x10000 * Addr.blocks_per_page in
  let block =
    QCheck.Gen.(
      map2
        (fun page i -> (page * Addr.blocks_per_page) + i)
        (frequency
           [ (6, int_range 0 6); (2, int_range (-3) (-1));
             (2, map (fun d -> (1 lsl 20) + d) (int_range 0 2)) ])
        (int_range 0 (Addr.blocks_per_page - 1)))
  in
  QCheck.Test.make ~name:"directory rows agree with the table" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 80) (pair bool block)))
    (fun ops ->
      let d = Directory.create ~nodes:4 in
      let model = Tt_util.Inttbl.create 4096 in
      List.for_all
        (fun (create, b) ->
          let block = base + b in
          let before = Tt_util.Inttbl.find_opt model block in
          if create then begin
            let e = Directory.entry d ~block in
            if before = None then Tt_util.Inttbl.replace model block e;
            e == Tt_util.Inttbl.find model block
            && Directory.entry d ~block == e
          end
          else
            match (Directory.find d ~block, before) with
            | None, None -> true
            | Some e, Some e' -> e == e'
            | _ -> false)
        ops
      &&
      let got = ref [] and expected = ref [] in
      Directory.iter d (fun b e -> got := (b, e) :: !got);
      Tt_util.Inttbl.iter (fun b e -> expected := (b, e) :: !expected) model;
      List.length !got = List.length !expected
      && List.for_all2 (fun (a, e) (b, e') -> a = b && e == e') !got !expected)

(* A node's CPU blocks on its miss, so a node holds one outstanding miss.
   Two threads on one node breaking that assumption are stopped at the
   second miss with a message naming both blocks. *)
let test_second_outstanding_miss_rejected () =
  let engine, sys = mk () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:1;
  let read vaddr th = ignore (Dirnnb.cpu_read_f64 sys ~node:0 th vaddr) in
  let _a = Thread.spawn engine ~name:"cpu0a" (read base) in
  let _b = Thread.spawn engine ~name:"cpu0b" (read (base + Addr.block_size)) in
  match Engine.run engine with
  | () -> Alcotest.fail "expected the second miss to be rejected"
  | exception Thread.Failure_in ("cpu0b", Invalid_argument msg) ->
      Alcotest.(check string)
        "diagnostic"
        (Printf.sprintf
           "Dirnnb: node 0 missed on 0x%x with its miss on 0x%x outstanding"
           (Addr.block_of (base + Addr.block_size))
           (Addr.block_of base))
        msg

(* The directory engine serves one FIFO inbox across both virtual
   networks: a request that arrives before a response runs first (the
   Typhoon NP would run the response first).  Node 2 answers an
   invalidate (handler 4) with an ack (6) and a recall (3) with recall
   data (5); node 0's receiver is replaced to record the answers. *)
let test_inbox_fifo_across_vnets () =
  let engine, sys = mk () in
  let net = Dirnnb.net sys in
  let answers = ref [] in
  Tt_net.Reliable.set_receiver net ~node:0 (fun m ->
      answers := m.Tt_net.Message.handler :: !answers);
  let send vnet handler args =
    Tt_net.Reliable.send net ~at:0
      (Tt_net.Message.make ~src:0 ~dst:2 ~vnet ~handler ~args
         ~data:Bytes.empty)
  in
  let block = base / Addr.block_size in
  send Tt_net.Message.Request 4 [| block |];
  send Tt_net.Message.Response 3 [| block; 0 |];
  Engine.run engine;
  Alcotest.(check (list int)) "answered in arrival order" [ 6; 5 ]
    (List.rev !answers)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dirnnb"
    [
      ( "costs",
        [
          Alcotest.test_case "local clean miss" `Quick test_local_clean_miss_cost;
          Alcotest.test_case "remote clean miss (Table 2)" `Quick
            test_remote_clean_miss_cost;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "write invalidates sharer" `Quick
            test_read_then_write_invalidates_sharer;
          Alcotest.test_case "recall from remote owner" `Quick
            test_recall_from_remote_owner;
          Alcotest.test_case "eviction writeback" `Quick
            test_eviction_writeback_updates_directory;
          Alcotest.test_case "inbox FIFO across vnets" `Quick
            test_inbox_fifo_across_vnets;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "round robin" `Quick test_alloc_round_robin;
          Alcotest.test_case "pinned home" `Quick test_alloc_pinned_home;
        ] );
      ("random", [ qc prop_random_program ]);
      ("directory", [ qc prop_directory_rows ]);
      ( "host",
        [
          Alcotest.test_case "hit path allocates nothing" `Quick
            test_hit_path_allocates_nothing;
          Alcotest.test_case "re-homing invalidates the home memo" `Quick
            test_rehome_invalidates_home_memo;
          Alcotest.test_case "one outstanding miss per node" `Quick
            test_second_outstanding_miss_rejected;
        ] );
    ]
