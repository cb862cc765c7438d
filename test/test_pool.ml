(* Whole-suite invariant: pool-debug mode poisons released pool buffers
   and rejects double-release (satellite of the zero-allocation PR). *)
let () = Tt_util.Debug.set_pool_debug true

(* Tests for the zero-allocation messaging path: per-vnet message pools
   (freshness, refcounting, double-release), the endpoint buffer pools
   (double-recycle rejection, poisoning), bulk-transfer argument
   validation, a pinned-cycle scenario that recycles records and buffers,
   and a Gc-based proof that the steady-state send path allocates
   nothing. *)

module Engine = Tt_sim.Engine
module System = Tt_typhoon.System
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Message = Tt_net.Message

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let page = 0x2000

let base = page * Addr.page_size

let mk ?(nodes = 2) () =
  let engine = Engine.create () in
  let sys = System.create engine { Params.default with Params.nodes } in
  (engine, sys)

let map_rw sys node =
  let ep = System.endpoint sys node in
  ep.Tempest.map_page ~vpage:page ~home:node ~mode:0 ~init_tag:Tag.Read_write

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* ---------------- Message pool semantics ---------------- *)

(* Every machine owns its pool; these tests draw from one machine's. *)
let machine_pool () = System.pool (snd (mk ()))

let prop_pool = machine_pool ()

(* An acquired message must carry exactly the caller's values in every
   field — nothing left over from the record's previous life.  The pool is
   dirtied first with a same-shape message full of junk so a stale field
   cannot accidentally match. *)
let prop_acquired_message_is_fresh =
  QCheck.Test.make ~name:"acquired message has every field freshly set"
    ~count:500
    QCheck.(quad bool (int_range 0 10) small_int (int_range 0 9))
    (fun (req, nargs, seed, data_words) ->
      let vnet = if req then Message.Request else Message.Response in
      let data_words = min data_words (Message.max_payload_words - 1 - nargs) in
      let data_len = 4 * data_words in
      let junk =
        Message.Pool.acquire prop_pool ~src:91 ~dst:92 ~vnet ~handler:93
          ~args:(Array.init nargs (fun i -> 1000 + i))
          ~data:(Bytes.make data_len 'j') ~seq:94 ~ack:95 ()
      in
      Message.Pool.release prop_pool junk;
      let args = Array.init nargs (fun i -> seed + i) in
      let data = Bytes.make data_len 'd' in
      let m =
        Message.Pool.acquire prop_pool ~src:3 ~dst:4 ~vnet ~handler:9 ~args
          ~data ()
      in
      let fresh =
        m.Message.src = 3 && m.Message.dst = 4 && m.Message.vnet = vnet
        && m.Message.handler = 9
        && m.Message.args = args
        && (nargs = 0 || m.Message.args != args) (* a private copy (all
              zero-length arrays share one atom, so only check when n > 0) *)
        && Bytes.equal m.Message.data data
        && m.Message.seq = -1 && m.Message.ack = -1
        && m.Message.pool_rc = 1
      in
      Message.Pool.release prop_pool m;
      fresh)

let test_double_release_raises () =
  let pool = machine_pool () in
  let m =
    Message.Pool.acquire pool ~src:0 ~dst:1 ~vnet:Message.Request ~handler:0 ()
  in
  Message.Pool.release pool m;
  expect_invalid "second release" (fun () -> Message.Pool.release pool m);
  expect_invalid "retain of freelisted" (fun () -> Message.Pool.retain m)

let test_retain_adds_an_owner () =
  let pool = machine_pool () in
  let m =
    Message.Pool.acquire pool ~src:0 ~dst:1 ~vnet:Message.Response ~handler:0 ()
  in
  Message.Pool.retain m;
  check_int "two owners" 2 m.Message.pool_rc;
  Message.Pool.release pool m;
  check_int "one owner" 1 m.Message.pool_rc;
  let free0 = Message.Pool.free_count pool in
  Message.Pool.release pool m;
  check_bool "returned to freelist" true
    (Message.Pool.free_count pool = free0 + 1)

(* A machine's messages recycle through its own pool only: releasing one
   leaves another machine's freelists untouched, and the next acquire on
   the same machine hands the record back. *)
let test_machines_own_their_pools () =
  let _e, sys = mk () and _e', sys' = mk () in
  let pool = System.pool sys and other = System.pool sys' in
  check_bool "the machine's pool is its fabric's" true
    (pool == Tt_net.Fabric.pool (System.fabric sys));
  check_bool "two machines, two pools" true (pool != other);
  let m =
    Message.Pool.acquire pool ~src:0 ~dst:1 ~vnet:Message.Request ~handler:0 ()
  in
  let free_other = Message.Pool.free_count other in
  Message.Pool.release pool m;
  check_int "other machine's freelists unchanged" free_other
    (Message.Pool.free_count other);
  let m' =
    Message.Pool.acquire pool ~src:1 ~dst:0 ~vnet:Message.Request ~handler:1 ()
  in
  check_bool "record recycled on its own machine" true (m == m');
  Message.Pool.release pool m'

let test_ordinary_messages_unaffected () =
  let pool = machine_pool () in
  let m = Message.make ~src:0 ~dst:1 ~vnet:Message.Request ~handler:0 () in
  (* GC-owned messages tolerate any number of retain/release calls *)
  Message.Pool.retain m;
  Message.Pool.release pool m;
  Message.Pool.release pool m;
  check_int "still ordinary" (-1) m.Message.pool_rc

(* ---------------- Endpoint buffer pools ---------------- *)

let test_recycle_block_rejects_double_release () =
  let _engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  let b = ep.Tempest.force_read_block ~vaddr:base in
  check_int "block size" Addr.block_size (Bytes.length b);
  ep.Tempest.recycle_block b;
  check_bool "released buffer is poisoned" true (Bytes.get b 0 = '\xde');
  expect_invalid "double recycle" (fun () -> ep.Tempest.recycle_block b)

let test_recycled_block_is_reused () =
  let _engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  let b = ep.Tempest.force_read_block ~vaddr:base in
  ep.Tempest.recycle_block b;
  let b' = ep.Tempest.force_read_block ~vaddr:base in
  check_bool "same buffer handed back" true (b == b')

(* ---------------- Bulk-transfer validation ---------------- *)

let test_bulk_transfer_validates_up_front () =
  let engine, sys = mk () in
  map_rw sys 0;
  map_rw sys 1;
  let ep0 = System.endpoint sys 0 in
  let bulk ~dst ~src_va ~dst_va ~len () =
    ep0.Tempest.bulk_transfer ~dst ~src_va ~dst_va ~len
      ~on_complete:(fun () -> Alcotest.fail "rejected transfer completed")
  in
  expect_invalid "non-positive length"
    (bulk ~dst:1 ~src_va:base ~dst_va:base ~len:0);
  expect_invalid "negative destination"
    (bulk ~dst:(-1) ~src_va:base ~dst_va:base ~len:64);
  expect_invalid "destination out of range"
    (bulk ~dst:99 ~src_va:base ~dst_va:base ~len:64);
  expect_invalid "negative src_va"
    (bulk ~dst:1 ~src_va:(-8) ~dst_va:base ~len:64);
  expect_invalid "unmapped src_va"
    (bulk ~dst:1 ~src_va:(base + (16 * Addr.page_size)) ~dst_va:base ~len:64);
  expect_invalid "src range runs off the page"
    (bulk ~dst:1 ~src_va:base ~dst_va:base ~len:(Addr.page_size + 64));
  expect_invalid "unmapped dst_va"
    (bulk ~dst:1 ~src_va:base ~dst_va:(base + (16 * Addr.page_size)) ~len:64);
  (* nothing above may leave state behind: a valid transfer still works *)
  let completed = ref false in
  ep0.Tempest.bulk_transfer ~dst:1 ~src_va:base ~dst_va:base ~len:500
    ~on_complete:(fun () -> completed := true);
  Engine.run engine;
  check_bool "valid transfer after rejections" true !completed

(* ---------------- Timing neutrality ---------------- *)

(* A fixed bounce-and-bulk scenario that recycles message records and
   block buffers throughout.  Pooling must never move an event: 1085 is
   the cycle count this scenario measured with pooling off. *)
let run_pinned_scenario () =
  let engine, sys = mk () in
  map_rw sys 0;
  map_rw sys 1;
  let tables = System.handlers sys in
  let remaining = ref 32 in
  let h = ref (-1) in
  let handler ep ~src ~args:_ ~data =
    ep.Tempest.recycle_block data;
    if !remaining > 0 then begin
      decr remaining;
      let vnet =
        if !remaining land 1 = 0 then Message.Request else Message.Response
      in
      let b = ep.Tempest.force_read_block ~vaddr:base in
      ep.Tempest.send_raw ~dst:src ~vnet ~handler:!h ~args:[||] ~data:b
    end
  in
  h := Tempest.Handlers.register_message tables ~name:"bounce" handler;
  let ep0 = System.endpoint sys 0 in
  let b = ep0.Tempest.force_read_block ~vaddr:base in
  ep0.Tempest.send_raw ~dst:1 ~vnet:Message.Request ~handler:!h ~args:[||]
    ~data:b;
  let completed = ref false in
  ep0.Tempest.bulk_transfer ~dst:1 ~src_va:base ~dst_va:base ~len:500
    ~on_complete:(fun () -> completed := true);
  Engine.run engine;
  check_bool "scenario ran to completion" true (!completed && !remaining = 0);
  Engine.now engine

let test_pool_is_timing_neutral () =
  check_int "pinned simulated cycles" 1085 (run_pinned_scenario ())

(* ---------------- The tentpole claim ---------------- *)

(* Steady-state sends allocate nothing: a two-node ping-pong that moves a
   32-byte block each way, recycling buffers and drawing messages from the
   pool, must stay at ~0 minor words per send once warm (same shape as the
   engine hot-path test in test_sim.ml). *)
let test_steady_state_send_no_alloc () =
  let engine, sys = mk () in
  map_rw sys 0;
  map_rw sys 1;
  let tables = System.handlers sys in
  let remaining = ref 0 in
  let h = ref (-1) in
  let handler ep ~src ~args:_ ~data =
    ep.Tempest.recycle_block data;
    if !remaining > 0 then begin
      decr remaining;
      let vnet =
        if !remaining land 1 = 0 then Message.Request else Message.Response
      in
      let b = ep.Tempest.force_read_block ~vaddr:base in
      ep.Tempest.send_raw ~dst:src ~vnet ~handler:!h ~args:[||] ~data:b
    end
  in
  h := Tempest.Handlers.register_message tables ~name:"bounce" handler;
  let ep0 = System.endpoint sys 0 in
  let kick n =
    remaining := n;
    let b = ep0.Tempest.force_read_block ~vaddr:base in
    ep0.Tempest.send_raw ~dst:1 ~vnet:Message.Request ~handler:!h ~args:[||]
      ~data:b
  in
  (* warm up: size the event heap, fabric in-flight heap, NP rings and
     both pools before measuring *)
  kick 64;
  Engine.run engine;
  let n = 10_000 in
  kick n;
  let before = Gc.minor_words () in
  Engine.run engine;
  let delta = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "minor words per send ~0 (delta %.0f over %d sends)"
       delta n)
    true
    (delta < 256.0)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "pool"
    [
      ( "message-pool",
        [
          qc prop_acquired_message_is_fresh;
          Alcotest.test_case "double release raises" `Quick
            test_double_release_raises;
          Alcotest.test_case "retain adds an owner" `Quick
            test_retain_adds_an_owner;
          Alcotest.test_case "ordinary messages unaffected" `Quick
            test_ordinary_messages_unaffected;
          Alcotest.test_case "machines own their pools" `Quick
            test_machines_own_their_pools;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "double recycle rejected" `Quick
            test_recycle_block_rejects_double_release;
          Alcotest.test_case "recycled block reused" `Quick
            test_recycled_block_is_reused;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "validation up front" `Quick
            test_bulk_transfer_validates_up_front;
        ] );
      ( "timing",
        [
          Alcotest.test_case "pooling is timing-neutral" `Quick
            test_pool_is_timing_neutral;
        ] );
      ( "no-alloc",
        [
          Alcotest.test_case "steady-state send allocates nothing" `Quick
            test_steady_state_send_no_alloc;
        ] );
    ]
