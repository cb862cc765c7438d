(* Tests for the set-associative cache model. *)

module Cache = Tt_cache.Cache
module Prng = Tt_util.Prng

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(size = 4096) ?(assoc = 4) () =
  Cache.create ~size_bytes:size ~assoc ~prng:(Prng.create ~seed:99) ()

let test_create_validation () =
  List.iter
    (fun (size, assoc) ->
      try
        ignore (Cache.create ~size_bytes:size ~assoc ~prng:(Prng.create ~seed:1) ());
        Alcotest.fail "bad geometry must raise"
      with Invalid_argument _ -> ())
    [ (0, 4); (100, 4); (4096, 0) ]

let test_geometry () =
  let c = mk () in
  check_int "sets = size/(assoc*32)" 32 (Cache.sets c)

let test_hit_miss_accounting () =
  let c = mk () in
  Alcotest.(check (option reject)) "cold miss" None (Cache.lookup c ~block:5);
  ignore (Cache.insert c ~block:5 ~state:Cache.Shared);
  check_bool "hit after insert" true (Cache.lookup c ~block:5 <> None);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c)

let test_probe_does_not_count () =
  let c = mk () in
  ignore (Cache.probe c ~block:9);
  check_int "probe not counted" 0 (Cache.misses c)

let test_insert_updates_state () =
  let c = mk () in
  ignore (Cache.insert c ~block:5 ~state:Cache.Shared);
  Alcotest.(check bool) "shared" true (Cache.probe c ~block:5 = Some Cache.Shared);
  (* re-inserting an existing block updates state, evicts nothing *)
  Alcotest.(check bool) "no eviction" true
    (Cache.insert c ~block:5 ~state:Cache.Exclusive = None);
  check_bool "now exclusive" true (Cache.probe c ~block:5 = Some Cache.Exclusive)

let test_eviction_only_when_set_full () =
  let c = mk () in
  let nsets = Cache.sets c in
  (* four blocks mapping to set 0: no eviction (4-way) *)
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "way %d free" i)
      true
      (Cache.insert c ~block:(i * nsets) ~state:Cache.Shared = None)
  done;
  (* the fifth must evict one of them *)
  match Cache.insert c ~block:(4 * nsets) ~state:Cache.Shared with
  | Some (victim, Cache.Shared) ->
      check_int "victim from same set" 0 (victim mod nsets);
      check_int "one shared eviction" 1 (Cache.evictions_shared c)
  | Some (_, Cache.Exclusive) -> Alcotest.fail "victim state wrong"
  | None -> Alcotest.fail "expected an eviction"

let test_state_transitions () =
  let c = mk () in
  ignore (Cache.insert c ~block:7 ~state:Cache.Exclusive);
  Cache.downgrade c ~block:7;
  check_bool "downgraded" true (Cache.probe c ~block:7 = Some Cache.Shared);
  Cache.set_state c ~block:7 Cache.Exclusive;
  check_bool "promoted" true (Cache.probe c ~block:7 = Some Cache.Exclusive);
  check_bool "invalidate returns presence" true (Cache.invalidate c ~block:7);
  check_bool "gone" true (Cache.probe c ~block:7 = None);
  check_bool "invalidate absent" false (Cache.invalidate c ~block:7);
  Cache.downgrade c ~block:7 (* no-op on absent *);
  Alcotest.check_raises "set_state absent"
    (Invalid_argument "Cache.set_state: block not cached") (fun () ->
      Cache.set_state c ~block:7 Cache.Shared)

let test_flush_page () =
  let c = mk () in
  let vpage = 3 in
  let first_block = vpage * Tt_mem.Addr.blocks_per_page in
  for i = 0 to 7 do
    ignore (Cache.insert c ~block:(first_block + i) ~state:Cache.Shared)
  done;
  ignore (Cache.insert c ~block:9999 ~state:Cache.Exclusive);
  Cache.flush_page c ~vpage;
  for i = 0 to 7 do
    check_bool "page block flushed" true (Cache.probe c ~block:(first_block + i) = None)
  done;
  check_bool "other block survives" true (Cache.probe c ~block:9999 <> None)

let test_occupancy_iter () =
  let c = mk () in
  for i = 0 to 9 do
    ignore (Cache.insert c ~block:(1000 + i) ~state:Cache.Shared)
  done;
  check_int "occupancy" 10 (Cache.occupancy c);
  let n = ref 0 in
  Cache.iter c (fun _ _ -> incr n);
  check_int "iter agrees" 10 !n

let prop_no_duplicate_tags =
  QCheck.Test.make ~name:"a block occupies at most one line" ~count:100
    QCheck.(list (int_range 0 500))
    (fun blocks ->
      let c = mk ~size:1024 ~assoc:2 () in
      List.iter (fun b -> ignore (Cache.insert c ~block:b ~state:Cache.Shared)) blocks;
      let seen = Hashtbl.create 64 in
      let dup = ref false in
      Cache.iter c (fun b _ ->
          if Hashtbl.mem seen b then dup := true;
          Hashtbl.replace seen b ());
      not !dup)

let prop_capacity_bound =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list (int_range 0 2000))
    (fun blocks ->
      let c = mk ~size:1024 ~assoc:2 () in
      List.iter (fun b -> ignore (Cache.insert c ~block:b ~state:Cache.Exclusive)) blocks;
      Cache.occupancy c <= 1024 / 32)

let prop_inserted_blocks_hit =
  QCheck.Test.make ~name:"an inserted block hits until evicted/invalidated"
    ~count:100
    QCheck.(list (int_range 0 100))
    (fun blocks ->
      let c = mk ~size:65536 ~assoc:4 () in
      (* cache big enough that nothing evicts *)
      List.iter (fun b -> ignore (Cache.insert c ~block:b ~state:Cache.Shared)) blocks;
      List.for_all (fun b -> Cache.probe c ~block:b <> None) blocks)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss_accounting;
          Alcotest.test_case "probe not counted" `Quick test_probe_does_not_count;
          Alcotest.test_case "insert updates state" `Quick test_insert_updates_state;
          Alcotest.test_case "eviction only when full" `Quick
            test_eviction_only_when_set_full;
          Alcotest.test_case "state transitions" `Quick test_state_transitions;
          Alcotest.test_case "flush page" `Quick test_flush_page;
          Alcotest.test_case "occupancy/iter" `Quick test_occupancy_iter;
          qc prop_no_duplicate_tags;
          qc prop_capacity_bound;
          qc prop_inserted_blocks_hit;
        ] );
    ]
