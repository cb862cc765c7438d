(** Simulation cost parameters — the code form of the paper's Table 2.

    Every latency the two target systems charge comes from this record, so
    the mapping from the paper's constants to the simulator is one-to-one
    and unit-testable.  Defaults are exactly Table 2 (loosely based on the
    DASH prototype, 32 processing nodes). *)

type t = {
  nodes : int;  (** 32 processing nodes *)
  (* --- common --- *)
  cpu_cache_bytes : int;  (** Figure 3 sweeps 4 K … 256 K *)
  cpu_cache_assoc : int;  (** 4-way, random replacement *)
  cpu_tlb_entries : int;  (** 64-entry, fully assoc., FIFO *)
  tlb_miss : int;  (** 25 cycles *)
  local_miss : int;  (** 29 cycles *)
  local_writeback : int;  (** 0 — perfect write buffer *)
  upgrade : int;
      (** write hit on an unowned (Shared) line: bus invalidate transaction.
          Not in Table 2; modelled as 5 cycles (a short bus transaction). *)
  net_latency : int;  (** 11 cycles *)
  barrier_latency : int;  (** 11 cycles *)
  (* --- DirNNB only --- *)
  remote_miss_base : int;  (** 23 cycles before the request leaves *)
  remote_miss_finish : int;  (** 34 cycles after the response arrives *)
  repl_shared : int;  (** 5 cycles when the victim line is shared *)
  repl_exclusive : int;  (** 16 cycles when the victim line is exclusive *)
  remote_inval : int;  (** 8 cycles per remote cache invalidate *)
  dir_op : int;  (** 16 cycles per directory operation *)
  dir_block_recv : int;  (** +11 if a block is received *)
  dir_per_msg : int;  (** +5 per message sent *)
  dir_block_send : int;  (** +11 if a block is sent *)
  (* --- Typhoon only --- *)
  np_tlb_entries : int;  (** NP TLB and RTLB: 64-entry FA FIFO *)
  np_tlb_miss : int;  (** 25 cycles *)
  np_dcache_bytes : int;  (** 16 KB *)
  np_dcache_assoc : int;  (** 2-way *)
  np_dcache_miss : int;
      (** NP data-cache miss = a local memory access, 29 cycles *)
  fault_detect : int;
      (** cycles for the CPU's inhibited bus transaction ("relinquish and
          retry") that turns a denied access into a block access fault.
          Not in Table 2; modelled as 10 cycles. *)
  stache_max_pages : int option;
      (** cap on stache pages per node; [None] = all of local memory *)
  sabotage : bool;
      (** Stache's seeded coherence bug for validating the torture
          harness: invalidations are acknowledged without dropping the
          read-only copy.  [false] in every production run. *)
  dir_limited_pointers : int option;
      (** DirNNB ablation: [Some i] keeps at most [i] precise sharer
          pointers per block and falls back to broadcast invalidation on
          overflow (Dir_i B); [None] (default) is the paper's full-map
          no-broadcast directory. *)
  link_words_per_cycle : int option;
      (** network ablation: [Some w] models finite per-node link bandwidth
          (arrivals at one node are serialized at [w] payload words per
          cycle); [None] (default) is the paper's contention-free model. *)
  (* --- finite buffering / flow control (§5.1 overflow machinery) --- *)
  flow_request_credits : int;
      (** per-(src,dst) send credits on the request virtual network; a
          sender out of credits parks (CPU) or spills (NP handler) until
          the receiver's NP finishes a message and returns the credit *)
  flow_response_credits : int;
      (** same, response vnet — kept separate so responses always keep
          enough credit to drain (§5.1's deadlock-avoidance priority) *)
  flow_spill_capacity : int;
      (** per-node cap on the user-level overflow (spill) buffer; an NP
          handler that would exceed it raises {!Tt_net.Overload.Overload}
          rather than buffer without bound *)
  np_queue_capacity : int;
      (** per-ring cap on the NP's work queues (finite buffering) *)
  fabric_capacity : int;
      (** cap on messages simultaneously in flight in the fabric *)
  (* --- simulator --- *)
  quantum : int;  (** thread run-ahead bound, cycles *)
  seed : int;
}

val default : t
(** Table 2 values; 256 KB CPU caches; seed 42. *)

val with_cache : t -> int -> t
(** Same parameters with a different CPU cache size (Figure 3 sweep). *)

val validate : t -> (unit, string) result
(** Sanity-check the record (positive sizes, power-of-two caches, …). *)
