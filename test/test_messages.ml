(* Tests for the message ownership contract: a handler may keep what it is
   given (messages and data buffers belong to the GC, nothing recycles
   them), [force_read_block] hands out a fresh buffer per call, bulk-
   transfer arguments are validated up front, and a pinned bounce-and-bulk
   scenario keeps its simulated cycle count. *)

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

(* ---------------- Handlers keep what they are given ---------------- *)

(* Two nodes bounce 101 messages.  Message [i] carries arguments
   [| i; 1000 + i |] and a block read with [force_read_block] right after
   the sender stored [i] in it.  Every handler stashes what it is given;
   once the bounce is over, the first message — followed by 100 further
   sends of the same shape — must still read the values it was sent with,
   and so must every other. *)
let test_handler_keeps_message () =
  let engine, sys = mk () in
  map_rw sys 0;
  map_rw sys 1;
  let total = 101 in
  let stash = ref [] in
  let h = ref (-1) in
  let send_next (ep : Tempest.t) ~dst i =
    ep.Tempest.force_write_i64 ~vaddr:base (Int64.of_int i);
    let data = ep.Tempest.force_read_block ~vaddr:base in
    ep.Tempest.send ~dst ~vnet:Message.Request ~handler:!h
      ~args:[| i; 1000 + i |] ~data
  in
  let handler ep ~src ~args ~data =
    stash := (args, data) :: !stash;
    let i = args.(0) + 1 in
    if i < total then send_next ep ~dst:src i
  in
  h := Tempest.Handlers.register_message (System.handlers sys) ~name:"stash"
      handler;
  send_next (System.endpoint sys 0) ~dst:1 0;
  Engine.run engine;
  let stash = List.rev !stash in
  check_int "every message delivered" total (List.length stash);
  List.iteri
    (fun i (args, data) ->
      let what = Printf.sprintf "message %d" i in
      Alcotest.(check (array int)) (what ^ " args") [| i; 1000 + i |] args;
      check_int (what ^ " data length") Addr.block_size (Bytes.length data);
      check_bool (what ^ " data") true
        (Bytes.get_int64_le data 0 = Int64.of_int i))
    stash

let test_force_read_block_buffers_distinct () =
  let _engine, sys = mk () in
  map_rw sys 0;
  let ep = System.endpoint sys 0 in
  let b = ep.Tempest.force_read_block ~vaddr:base in
  let b' = ep.Tempest.force_read_block ~vaddr:base in
  check_int "block size" Addr.block_size (Bytes.length b);
  check_bool "two reads, two buffers" true (b != b');
  check_bool "same contents" true (Bytes.equal b b')

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

(* A fixed bounce-and-bulk scenario: 32 block-carrying bounces alternating
   between the two virtual networks, overlapped with a 500-byte bulk
   transfer.  1085 is its simulated cycle count; host-side changes to how
   messages and buffers are built must not move an event. *)
let run_pinned_scenario () =
  let engine, sys = mk () in
  map_rw sys 0;
  map_rw sys 1;
  let tables = System.handlers sys in
  let remaining = ref 32 in
  let h = ref (-1) in
  let handler ep ~src ~args:_ ~data:_ =
    if !remaining > 0 then begin
      decr remaining;
      let vnet =
        if !remaining land 1 = 0 then Message.Request else Message.Response
      in
      let b = ep.Tempest.force_read_block ~vaddr:base in
      ep.Tempest.send ~dst:src ~vnet ~handler:!h ~args:[||] ~data:b
    end
  in
  h := Tempest.Handlers.register_message tables ~name:"bounce" handler;
  let ep0 = System.endpoint sys 0 in
  let b = ep0.Tempest.force_read_block ~vaddr:base in
  ep0.Tempest.send ~dst:1 ~vnet:Message.Request ~handler:!h ~args:[||]
    ~data:b;
  let completed = ref false in
  ep0.Tempest.bulk_transfer ~dst:1 ~src_va:base ~dst_va:base ~len:500
    ~on_complete:(fun () -> completed := true);
  Engine.run engine;
  check_bool "scenario ran to completion" true (!completed && !remaining = 0);
  Engine.now engine

let test_bounce_and_bulk_pinned () =
  check_int "pinned simulated cycles" 1085 (run_pinned_scenario ())

let () =
  Alcotest.run "messages"
    [
      ( "ownership",
        [
          Alcotest.test_case "handler keeps its message" `Quick
            test_handler_keeps_message;
          Alcotest.test_case "force_read_block buffers distinct" `Quick
            test_force_read_block_buffers_distinct;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "validation up front" `Quick
            test_bulk_transfer_validates_up_front;
        ] );
      ( "timing",
        [
          Alcotest.test_case "bounce-and-bulk cycles pinned" `Quick
            test_bounce_and_bulk_pinned;
        ] );
    ]
