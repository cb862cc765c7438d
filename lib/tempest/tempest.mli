(** Tempest: the user-level shared-memory interface (§2 of the paper).

    Tempest exposes four mechanism families to user-level code:

    + low-overhead active messages (§2.1),
    + bulk node-to-node data transfer (§2.2),
    + virtual-memory management (§2.3),
    + fine-grain access control over tagged 32-byte blocks (§2.4, Table 1).

    User protocol code (the Stache library, the EM3D update protocol, or any
    custom protocol an application ships) is written against the values in
    this module only; the Typhoon machine model provides the implementation
    and charges simulated cost for every operation.  Of Table 1's nine
    operations, [read] and [write] are the CPU's ordinary tag-checked loads
    and stores (they live on the machine's CPU access path); the remaining
    seven appear here on the per-node endpoint.

    Handlers run on the node's network-interface processor, non-preemptively
    and to completion (§5.1): a message handler or fault handler is an OCaml
    closure that may use every endpoint operation and must not block. *)

type resumption
(** Capability to restart thread(s) suspended by a block access fault or
    page fault — Table 1's [resume] operand.  Handlers may stash it and fire
    it from a later handler (e.g. when response data arrives). *)

val make_resumption : (unit -> unit) -> resumption
(** Machine-model constructor (not for protocol code). *)

type fault = {
  fault_vaddr : int;  (** faulting address *)
  fault_access : Tt_mem.Tag.access;
  fault_tag : Tt_mem.Tag.t;  (** tag observed at fault time *)
  fault_mode : int;  (** 4-bit mode of the faulting page *)
  fault_resumption : resumption;
}
(** Block-access-fault descriptor: the contents of Typhoon's BAF buffer
    entry plus the RTLB fields used for dispatch (§5.4). *)

type t = {
  node : int;
  nnodes : int;
  charge : int -> unit;
      (** charge NP instruction cycles (handler bodies use this to model
          their computation; endpoint operations charge their own cost) *)
  touch : int -> unit;
      (** model one NP data-cache reference to a protocol structure
          identified by an arbitrary stable key *)
  (* --- §2.1 messaging --- *)
  send :
    dst:int -> vnet:Tt_net.Message.vnet -> handler:int -> args:int array ->
    data:Bytes.t -> unit;
      (** inject an active message; at the destination the registered handler
          runs on the NP.  Requests must use [vnet:Request], responses
          [vnet:Response] (deadlock avoidance, §5.1).  Pass [[||]] and
          [Bytes.empty] for a message without arguments or data.  The
          message references [args] and [data] without copying them: the
          sender hands both over and must not change them afterwards, and
          the receiving handler may keep them. *)
  (* --- §2.2 bulk transfer --- *)
  bulk_transfer :
    dst:int -> src_va:int -> dst_va:int -> len:int ->
    on_complete:(unit -> unit) -> unit;
      (** asynchronous DMA-style copy between this node's [src_va] and
          [dst]'s [dst_va]; [on_complete] fires on the *destination* when the
          last packet lands. *)
  (* --- §2.3 virtual-memory management --- *)
  map_page : vpage:int -> home:int -> mode:int -> init_tag:Tt_mem.Tag.t -> unit;
  unmap_page : vpage:int -> unit;
      (** also flushes the page from the local CPU cache and TLB *)
  page_mapped : vpage:int -> bool;
  page_mode : vpage:int -> int;
  set_page_mode : vpage:int -> mode:int -> unit;
  page_home : vpage:int -> int;
  page_user : vpage:int -> Tt_mem.Pagemem.user_info;
  set_page_user : vpage:int -> Tt_mem.Pagemem.user_info -> unit;
  page_count : unit -> int;
  (* --- §2.4 fine-grain access control (Table 1) --- *)
  read_tag : vaddr:int -> Tt_mem.Tag.t;
  set_rw : vaddr:int -> unit;
  set_ro : vaddr:int -> unit;
  set_busy : vaddr:int -> unit;
  invalidate : vaddr:int -> unit;
      (** tag := Invalid and invalidate any local CPU-cached copy *)
  downgrade : vaddr:int -> unit;
      (** demote any local CPU-cached copy of the block to an unowned
          (Shared) line, so a later store raises a bus transaction that the
          tag check can deny; used together with [set_ro] *)
  force_read_block : vaddr:int -> Bytes.t;
      (** 32-byte load without tag check, into a fresh buffer the caller
          owns (it may send it as message data) *)
  force_write_block : vaddr:int -> Bytes.t -> unit;
  force_read_i64 : vaddr:int -> int64;
  force_write_i64 : vaddr:int -> int64 -> unit;
  force_read_f64 : vaddr:int -> float;
  force_write_f64 : vaddr:int -> float -> unit;
  resume : resumption -> unit;
  overflow_pending : unit -> int;
      (** messages parked in this node's §5.1 overflow buffer (spilled
          handler sends plus blocked CPU sends awaiting credits); [0] when
          the machine runs without the {!Tt_net.Flow} layer *)
}
(** A per-node Tempest endpoint.  Protocol handlers receive the endpoint of
    the node they execute on. *)

type message_handler = t -> src:int -> args:int array -> data:Bytes.t -> unit
(** A message handler may keep what it is given: [args] and [data] belong
    to the delivered message, which nothing reuses. *)

type block_fault_handler = t -> fault -> unit

type page_fault_handler =
  t -> vaddr:int -> Tt_mem.Tag.access -> resumption -> unit

type status_handler = t -> pending:int -> unit
(** §5.1 overflow status handler: dispatched (second-level, slower than
    the hardware-assisted message dispatch) after the system drains the
    node's overflow buffer, with the number of messages still parked.
    Protocol code may use it to throttle or account; registration is
    optional — draining happens regardless. *)

(** System-wide handler tables (the same protocol code is linked on every
    node, so registration is global).  Machines own one of these and
    dispatch into it. *)
module Handlers : sig
  type tables

  val create : unit -> tables

  val register_message : tables -> message_handler -> int
  (** Returns the handler id used in {!t.send}. *)

  val message : tables -> int -> message_handler
  (** @raise Invalid_argument for an unregistered id. *)

  val set_block_fault : tables -> mode:int -> block_fault_handler -> unit
  (** One handler per 4-bit page mode (the RTLB dispatch of §5.4).
      @raise Invalid_argument for a mode outside 0..15. *)

  val block_fault : tables -> mode:int -> block_fault_handler option
  (** The handler registered for a mode, [None] if there is none; looking
      it up allocates nothing. *)

  val set_page_fault : tables -> page_fault_handler -> unit

  val page_fault : tables -> page_fault_handler option

  val set_status : tables -> status_handler -> unit

  val status : tables -> status_handler option
end

val fire : resumption -> unit
(** Machine-model accessor: run the resumption's wake action. *)
