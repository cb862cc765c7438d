type resumption = { wake : unit -> unit }

let make_resumption wake = { wake }

let fire r = r.wake ()

type fault = {
  fault_vaddr : int;
  fault_access : Tt_mem.Tag.access;
  fault_tag : Tt_mem.Tag.t;
  fault_mode : int;
  fault_resumption : resumption;
}

type t = {
  node : int;
  nnodes : int;
  charge : int -> unit;
  touch : int -> unit;
  send :
    dst:int -> vnet:Tt_net.Message.vnet -> handler:int -> args:int array ->
    data:Bytes.t -> unit;
  bulk_transfer :
    dst:int -> src_va:int -> dst_va:int -> len:int ->
    on_complete:(unit -> unit) -> unit;
  map_page : vpage:int -> home:int -> mode:int -> init_tag:Tt_mem.Tag.t -> unit;
  unmap_page : vpage:int -> unit;
  page_mapped : vpage:int -> bool;
  page_mode : vpage:int -> int;
  set_page_mode : vpage:int -> mode:int -> unit;
  page_home : vpage:int -> int;
  page_user : vpage:int -> Tt_mem.Pagemem.user_info;
  set_page_user : vpage:int -> Tt_mem.Pagemem.user_info -> unit;
  page_count : unit -> int;
  page_capacity : unit -> int option;
  read_tag : vaddr:int -> Tt_mem.Tag.t;
  set_rw : vaddr:int -> unit;
  set_ro : vaddr:int -> unit;
  set_busy : vaddr:int -> unit;
  invalidate : vaddr:int -> unit;
  downgrade : vaddr:int -> unit;
  force_read_block : vaddr:int -> Bytes.t;
  force_write_block : vaddr:int -> Bytes.t -> unit;
  force_read_i64 : vaddr:int -> int64;
  force_write_i64 : vaddr:int -> int64 -> unit;
  force_read_f64 : vaddr:int -> float;
  force_write_f64 : vaddr:int -> float -> unit;
  resume : resumption -> unit;
  overflow_pending : unit -> int;
}

type message_handler = t -> src:int -> args:int array -> data:Bytes.t -> unit

type block_fault_handler = t -> fault -> unit

type page_fault_handler =
  t -> vaddr:int -> Tt_mem.Tag.access -> resumption -> unit

type status_handler = t -> pending:int -> unit

module Handlers = struct
  let modes = 16 (* a page mode is 4 bits *)

  type tables = {
    messages : (string * message_handler) Tt_util.Vec.t;
    (* indexed by page mode; the options are built at registration, so a
       fault's lookup neither hashes nor allocates *)
    block_faults : block_fault_handler option array;
    mutable page_faults : page_fault_handler option;
    mutable status : status_handler option;
  }

  let create () =
    { messages = Tt_util.Vec.create (); block_faults = Array.make modes None;
      page_faults = None; status = None }

  let register_message t ~name handler =
    Tt_util.Vec.push t.messages (name, handler);
    Tt_util.Vec.length t.messages - 1

  let message t id =
    if id < 0 || id >= Tt_util.Vec.length t.messages then
      invalid_arg (Printf.sprintf "Tempest.Handlers.message: bad id %d" id);
    snd (Tt_util.Vec.get t.messages id)

  let set_block_fault t ~mode handler =
    if mode < 0 || mode >= modes then
      invalid_arg
        (Printf.sprintf "Tempest.Handlers.set_block_fault: mode %d" mode);
    t.block_faults.(mode) <- Some handler

  let block_fault t ~mode =
    if mode < 0 || mode >= modes then None else t.block_faults.(mode)

  let set_page_fault t handler = t.page_faults <- Some handler

  let page_fault t = t.page_faults

  let set_status t handler = t.status <- Some handler

  let status t = t.status
end
