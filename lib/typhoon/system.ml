module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Pagemem = Tt_mem.Pagemem
module Tlb = Tt_mem.Tlb
module Cache = Tt_cache.Cache
module Message = Tt_net.Message
module Fabric = Tt_net.Fabric
module Reliable = Tt_net.Reliable
module Flow = Tt_net.Flow
(* Params is exposed unwrapped by tt_params *)
module Stats = Tt_util.Stats
module Inttbl = Tt_util.Inttbl

type executor = Np_ctx | Cpu_ctx of Thread.t

type node = {
  id : int;
  mem : Pagemem.t;
  tlb : Tlb.t;
  cache : Cache.t;
  np : Np.t;
  stats : Stats.t;
  (* hot-path counters, pre-resolved from [stats] at create time *)
  c_accesses : Stats.counter;
  c_upgrades : Stats.counter;
  c_local_misses : Stats.counter;
  c_block_faults : Stats.counter;
  c_page_faults : Stats.counter;
  mutable ctx : executor;
  mutable endpoint : Tempest.t option;
}

let bulk_chunk_size = 64

type t = {
  engine : Engine.t;
  params : Params.t;
  fabric : Fabric.t;
  net : Reliable.t;
  flow : Flow.t;
  tables : Tempest.Handlers.tables;
  nodes : node array;
  mutable bulk_token : int;
  bulk_completions : (unit -> unit) Inttbl.t;
  mutable bulk_handler_id : int;
  (* write observer for the recovery layer's checkpoint dirty tracking:
     fired on every CPU store, never on NP forced writes.  Pure
     bookkeeping — it charges no simulated cycles, so installing it never
     perturbs timing. *)
  mutable on_dirty : (vpage:int -> unit) option;
}

let engine t = t.engine

let params t = t.params

let nnodes t = Array.length t.nodes

let handlers t = t.tables

let fabric t = t.fabric

let net t = t.net

let node_of t i = t.nodes.(i)

let node_mem t i = (node_of t i).mem

let node_np t i = (node_of t i).np

let cpu_cache t i = (node_of t i).cache

let cpu_tlb t i = (node_of t i).tlb

let node_stats t i = (node_of t i).stats

let endpoint t i =
  match (node_of t i).endpoint with
  | Some e -> e
  | None -> invalid_arg "System.endpoint: node not initialized"

(* Charge cycles to whoever is currently executing on this node: the NP
   (handler context) or a CPU thread (library context). *)
let charge node n =
  match node.ctx with
  | Np_ctx -> Np.charge node.np n
  | Cpu_ctx th -> Thread.advance th n

let exec_clock node =
  match node.ctx with Np_ctx -> Np.clock node.np | Cpu_ctx th -> Thread.clock th

(* RTLB timing: charge the translation-cache penalty for touching a page's
   tag metadata. *)
let rtlb_access node vaddr =
  charge node (Tlb.access (Np.rtlb node.np) (Addr.page_of vaddr))

(* Reject a bulk source/destination range that is (partly) unmapped now,
   at the call site, instead of cycles later inside a deferred chore with a
   baffling backtrace. *)
let check_bulk_range mem ~what ~va ~len =
  if va < 0 then
    invalid_arg (Printf.sprintf "bulk_transfer: negative %s 0x%x" what va);
  for vpage = Addr.page_of va to Addr.page_of (va + len - 1) do
    if not (Pagemem.is_mapped mem ~vpage) then
      invalid_arg
        (Printf.sprintf
           "bulk_transfer: %s range [0x%x,0x%x) crosses unmapped page %d"
           what va (va + len) vpage)
  done

let make_endpoint t node =
  (* Route a message onto the network through the flow-control layer: a
     handler-context send may spill into the node's §5.1 overflow buffer,
     a CPU-context send may block the thread until credits return.  With
     ample credits both reduce to pure integer bookkeeping around
     [Reliable.send]. *)
  let net_send ~at msg =
    match node.ctx with
    | Np_ctx -> Flow.send_from_handler t.flow ~at msg
    | Cpu_ctx th -> Flow.send_from_cpu t.flow ~at th msg
  in
  let send ~dst ~vnet ~handler ~args ~data =
    let msg = Message.make ~src:node.id ~dst ~vnet ~handler ~args ~data in
    charge node (Costs.send_base + (Costs.send_per_word * Message.words msg));
    net_send ~at:(exec_clock node) msg
  in
  let touch key =
    match Cache.lookup (Np.dcache node.np) ~block:key with
    | Some _ -> charge node 1
    | None ->
        ignore (Cache.insert (Np.dcache node.np) ~block:key ~state:Tt_cache.Cache.Exclusive);
        charge node t.params.Params.np_dcache_miss
  in
  let map_page ~vpage ~home ~mode ~init_tag =
    charge node Costs.map_page;
    ignore (Pagemem.map node.mem ~vpage ~home ~mode ~init_tag)
  in
  let unmap_page ~vpage =
    charge node Costs.unmap_page;
    Pagemem.unmap node.mem ~vpage;
    Cache.flush_page node.cache ~vpage;
    Tlb.flush_entry node.tlb vpage;
    Tlb.flush_entry (Np.rtlb node.np) vpage
  in
  let page_mapped ~vpage = Pagemem.is_mapped node.mem ~vpage in
  let with_page ~vpage f = f (Pagemem.get_page node.mem ~vpage) in
  let set_tag ~vaddr tag =
    rtlb_access node vaddr;
    charge node Costs.tag_op;
    Pagemem.set_tag node.mem ~vaddr tag
  in
  let bulk_transfer ~dst ~src_va ~dst_va ~len ~on_complete =
    if len <= 0 then invalid_arg "bulk_transfer: non-positive length";
    if dst < 0 || dst >= Array.length t.nodes then
      invalid_arg
        (Printf.sprintf "bulk_transfer: bad destination node %d (%d nodes)"
           dst (Array.length t.nodes));
    check_bulk_range node.mem ~what:"src_va" ~va:src_va ~len;
    check_bulk_range t.nodes.(dst).mem ~what:"dst_va" ~va:dst_va ~len;
    let token = t.bulk_token in
    t.bulk_token <- t.bulk_token + 1;
    Inttbl.replace t.bulk_completions token on_complete;
    (* Packetize [bulk_chunk_size] bytes at a time; packets are generated
       as deferred NP work so the transfer overlaps computation and yields
       to message handling (§5.2).  One chore closure carries the whole
       transfer, re-posting itself per packet; each chunk gets a fresh
       buffer of its exact size, so a short tail's packet word count — and
       thus its timing — is that of the bytes it carries. *)
    let off = ref 0 in
    let rec chore () =
      try
        let chunk = min bulk_chunk_size (len - !off) in
        let data = Bytes.create chunk in
        Pagemem.read_bytes_into node.mem ~vaddr:(src_va + !off) ~dst:data
          ~dst_pos:0 ~len:chunk;
        let last = if !off + chunk >= len then 1 else 0 in
        let msg =
          Message.make ~src:node.id ~dst ~vnet:Message.Request
            ~handler:t.bulk_handler_id
            ~args:[| dst_va + !off; token; last |]
            ~data
        in
        Np.charge node.np
          (Costs.bulk_packet_overhead
          + Costs.send_base
          + (Costs.send_per_word * Message.words msg));
        (* the chore runs on the NP, so this is a handler-context send *)
        net_send ~at:(Np.clock node.np) msg;
        off := !off + chunk;
        if !off < len then Np.post_deferred node.np ~at:(Np.clock node.np) chore
      with e ->
        (* a failed transfer must not leave its completion behind: nothing
           would ever fire or drop it *)
        Inttbl.remove t.bulk_completions token;
        raise e
    in
    Np.post_deferred node.np ~at:(exec_clock node) chore
  in
  {
    Tempest.node = node.id;
    nnodes = Array.length t.nodes;
    charge = (fun n -> charge node n);
    touch;
    send;
    bulk_transfer;
    map_page;
    unmap_page;
    page_mapped;
    page_mode = (fun ~vpage -> with_page ~vpage (fun p -> p.Pagemem.mode));
    set_page_mode =
      (fun ~vpage ~mode -> with_page ~vpage (fun p -> p.Pagemem.mode <- mode));
    page_home = (fun ~vpage -> with_page ~vpage (fun p -> p.Pagemem.home));
    page_user = (fun ~vpage -> with_page ~vpage (fun p -> p.Pagemem.user));
    set_page_user =
      (fun ~vpage user -> with_page ~vpage (fun p -> p.Pagemem.user <- user));
    page_count = (fun () -> Pagemem.page_count node.mem);
    read_tag =
      (fun ~vaddr ->
        rtlb_access node vaddr;
        charge node Costs.tag_op;
        Pagemem.get_tag node.mem ~vaddr);
    set_rw = (fun ~vaddr -> set_tag ~vaddr Tag.Read_write);
    set_ro = (fun ~vaddr -> set_tag ~vaddr Tag.Read_only);
    set_busy = (fun ~vaddr -> set_tag ~vaddr Tag.Busy);
    invalidate =
      (fun ~vaddr ->
        set_tag ~vaddr Tag.Invalid;
        (* invalidate any local CPU-cached copy via the bus (Table 1) *)
        charge node 2;
        ignore (Cache.invalidate node.cache ~block:(Addr.block_of vaddr)));
    downgrade =
      (fun ~vaddr ->
        charge node 2;
        Cache.downgrade node.cache ~block:(Addr.block_of vaddr));
    force_read_block =
      (fun ~vaddr ->
        rtlb_access node vaddr;
        charge node Costs.force_block;
        let buf = Bytes.create Addr.block_size in
        Pagemem.read_block_into node.mem ~vaddr ~dst:buf ~dst_pos:0;
        buf);
    force_write_block =
      (fun ~vaddr data ->
        rtlb_access node vaddr;
        charge node Costs.force_block;
        (* the block-transfer buffer keeps the CPU cache coherent (§5.1):
           a forced write invalidates any stale CPU-cached copy *)
        ignore (Cache.invalidate node.cache ~block:(Addr.block_of vaddr));
        Pagemem.write_block node.mem ~vaddr data);
    force_read_i64 =
      (fun ~vaddr ->
        rtlb_access node vaddr;
        charge node Costs.force_word;
        Pagemem.read_i64 node.mem ~vaddr);
    force_write_i64 =
      (fun ~vaddr v ->
        rtlb_access node vaddr;
        charge node Costs.force_word;
        ignore (Cache.invalidate node.cache ~block:(Addr.block_of vaddr));
        Pagemem.write_i64 node.mem ~vaddr v);
    force_read_f64 =
      (fun ~vaddr ->
        rtlb_access node vaddr;
        charge node Costs.force_word;
        Pagemem.read_f64 node.mem ~vaddr);
    force_write_f64 =
      (fun ~vaddr v ->
        rtlb_access node vaddr;
        charge node Costs.force_word;
        ignore (Cache.invalidate node.cache ~block:(Addr.block_of vaddr));
        Pagemem.write_f64 node.mem ~vaddr v);
    resume =
      (fun r ->
        charge node Costs.resume_op;
        Tempest.fire r);
    overflow_pending = (fun () -> Flow.node_queued t.flow node.id);
  }

let np_prologue node =
  node.ctx <- Np_ctx;
  Np.charge node.np Costs.dispatch

(* End-to-end credit return: the sender's credit comes back when the
   receiving NP has *executed* the message's handler, not on mere arrival —
   finite NP queues are covered by the same credits as the wire. *)
let return_credit t (msg : Message.t) =
  Flow.credit_return t.flow ~src:msg.Message.src ~dst:msg.Message.dst
    msg.Message.vnet

(* Execute one delivered message: dispatch to the registered user handler,
   which may keep what it is given. *)
let dispatch_message t ep (msg : Message.t) =
  let handler = Tempest.Handlers.message t.tables msg.Message.handler in
  handler ep ~src:msg.Message.src ~args:msg.Message.args
    ~data:msg.Message.data;
  return_credit t msg

let np_msg_exec t node msg =
  np_prologue node;
  dispatch_message t (Option.get node.endpoint) msg

let np_deferred_exec node f =
  np_prologue node;
  f ()

(* Execute one NP work item: dispatch to the registered user handler. *)
let np_exec t node work =
  np_prologue node;
  let ep = Option.get node.endpoint in
  (match work with
  | Np.Message msg -> dispatch_message t ep msg
  | Np.Block_fault fault ->
      Stats.Counter.incr node.c_block_faults;
      (match
         Tempest.Handlers.block_fault t.tables ~mode:fault.Tempest.fault_mode
       with
      | Some handler -> handler ep fault
      | None ->
          invalid_arg
            (Printf.sprintf
               "Typhoon: block fault at 0x%x on node %d, mode %d, but no \
                handler registered"
               fault.Tempest.fault_vaddr node.id fault.Tempest.fault_mode))
  | Np.Page_fault { vaddr; access; resumption } ->
      Stats.Counter.incr node.c_page_faults;
      (match Tempest.Handlers.page_fault t.tables with
      | Some handler -> handler ep ~vaddr access resumption
      | None ->
          invalid_arg
            (Printf.sprintf
               "Typhoon: page fault at 0x%x on node %d but no handler \
                registered"
               vaddr node.id))
  | Np.Deferred f -> f ())

let create ?(reliability = Reliable.Perfect) engine (p : Params.t) =
  (match Params.validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Typhoon.System.create: " ^ msg));
  let prng = Tt_util.Prng.create ~seed:p.Params.seed in
  let fabric = Fabric.create engine ~nodes:p.Params.nodes ~latency:p.Params.net_latency
      ?words_per_cycle:p.Params.link_words_per_cycle
      ~capacity:p.Params.fabric_capacity () in
  let net = Reliable.create engine fabric reliability in
  let flow =
    Flow.create net ~nodes:p.Params.nodes
      ~request_credits:p.Params.flow_request_credits
      ~response_credits:p.Params.flow_response_credits
      ~spill_capacity:p.Params.flow_spill_capacity
      ~spill_cost:Costs.spill_store ~drain_cost:Costs.spill_drain
      ~status_cost:Costs.status_dispatch ()
  in
  let tables = Tempest.Handlers.create () in
  let nodes =
    Array.init p.Params.nodes (fun id ->
        let rtlb =
          Tlb.create ~entries:p.Params.np_tlb_entries
            ~miss_penalty:p.Params.np_tlb_miss ()
        in
        let dcache =
          Cache.create ~name:(Printf.sprintf "np%d.dcache" id)
            ~size_bytes:p.Params.np_dcache_bytes ~assoc:p.Params.np_dcache_assoc
            ~prng:(Tt_util.Prng.split prng) ()
        in
        let stats = Stats.create (Printf.sprintf "node%d" id) in
        {
          id;
          mem = Pagemem.create ~node:id ();
          tlb =
            Tlb.create ~entries:p.Params.cpu_tlb_entries
              ~miss_penalty:p.Params.tlb_miss ();
          cache =
            Cache.create ~name:(Printf.sprintf "cpu%d.cache" id)
              ~size_bytes:p.Params.cpu_cache_bytes ~assoc:p.Params.cpu_cache_assoc
              ~prng:(Tt_util.Prng.split prng) ();
          np =
            Np.create engine ~rtlb ~dcache
              ~capacity:p.Params.np_queue_capacity
              ~name:(Printf.sprintf "np%d" id) ();
          stats;
          c_accesses = Stats.counter stats "accesses";
          c_upgrades = Stats.counter stats "upgrades";
          c_local_misses = Stats.counter stats "local_misses";
          c_block_faults = Stats.counter stats "block_faults";
          c_page_faults = Stats.counter stats "page_faults";
          ctx = Np_ctx;
          endpoint = None;
        })
  in
  let t =
    { engine; params = p; fabric; net; flow; tables; nodes; bulk_token = 0;
      bulk_completions = Inttbl.create 16; bulk_handler_id = -1;
      on_dirty = None }
  in
  Array.iter
    (fun node ->
      node.endpoint <- Some (make_endpoint t node);
      Np.set_exec node.np (np_exec t node);
      Np.set_msg_exec node.np (np_msg_exec t node);
      Np.set_deferred_exec node.np (np_deferred_exec node);
      Reliable.set_receiver net ~node:node.id (fun msg ->
          Np.post_message node.np ~at:(Engine.now engine) msg))
    nodes;
  (* Drain chores are §5.1's second-level status dispatch: they run on the
     parked sender's NP, a wire delay after the credit returned.
     [post_deferred] requires monotone ready times per ring, and [Np.clock]
     can run ahead of engine time mid-drain, so clamp to whichever is
     later — the max is monotone because both operands are. *)
  Flow.set_hooks flow
    ~post:(fun nid chore ->
      let np = nodes.(nid).np in
      Np.post_deferred np
        ~at:(max (Engine.now engine + p.Params.net_latency) (Np.clock np))
        chore)
    ~clock:(fun nid -> Np.clock nodes.(nid).np)
    ~charge:(fun nid c -> Np.charge nodes.(nid).np c)
    ~status:(fun nid ~pending ->
      match Tempest.Handlers.status t.tables with
      | Some h -> h (Option.get nodes.(nid).endpoint) ~pending
      | None -> ());
  (* Built-in receive handler for bulk-transfer packets: force-write the
     data at the destination address; the last packet fires the completion
     callback. *)
  let bulk_handler ep ~src:_ ~args ~data =
    let dst_va = args.(0) and token = args.(1) and last = args.(2) in
    ep.Tempest.charge 2;
    let rec write off =
      if off < Bytes.length data then begin
        let word =
          Bytes.get_int64_le data off
        in
        ep.Tempest.force_write_i64 ~vaddr:(dst_va + off) word;
        write (off + 8)
      end
    in
    if Bytes.length data mod 8 = 0 && Addr.is_word_aligned dst_va then write 0
    else begin
      (* unaligned tail: byte path through the page store *)
      ep.Tempest.charge (Bytes.length data / 4);
      Pagemem.write_bytes (node_mem t ep.Tempest.node) ~vaddr:dst_va data
    end;
    if last = 1 then begin
      match Inttbl.find_opt t.bulk_completions token with
      | Some complete ->
          Inttbl.remove t.bulk_completions token;
          complete ()
      | None -> ()
    end
  in
  t.bulk_handler_id <-
    Tempest.Handlers.register_message tables bulk_handler;
  t

let with_cpu_context t ~node th f =
  let n = node_of t node in
  let saved = n.ctx in
  n.ctx <- Cpu_ctx th;
  Fun.protect ~finally:(fun () -> n.ctx <- saved) f

(* ------------------------------------------------------------------ *)
(* CPU tag-checked access path (Table 1 read/write; §5.4)             *)
(* ------------------------------------------------------------------ *)

let suspend_on_fault node th post_fault =
  Thread.await_unit th (fun wake ->
      let resumption =
        Tempest.make_resumption (fun () ->
            (* the CPU retries once the NP unmasks its bus request *)
            Thread.set_clock th (max (Thread.clock th) (Np.clock node.np));
            wake ())
      in
      post_fault resumption)

(* The tag-checked access; returns the page it translated, which the typed
   read or write then uses without a second lookup. *)
let rec access_page t ~node th access vaddr =
  let n = node_of t node in
  Stats.Counter.incr n.c_accesses;
  Thread.maybe_yield th;
  Thread.advance th 1;
  let vpage = Addr.page_of vaddr in
  Thread.advance th (Tlb.access n.tlb vpage);
  let page = Pagemem.lookup n.mem ~vpage in
  if page == Pagemem.no_page then begin
    Thread.advance th t.params.Params.fault_detect;
    suspend_on_fault n th (fun resumption ->
        Np.post n.np ~at:(Thread.clock th)
          (Np.Page_fault { vaddr; access; resumption }));
    (* retry after the user page-fault handler resumes us *)
    access_page t ~node th access vaddr
  end
  else begin
    let block = Addr.block_of vaddr in
    match Cache.lookup n.cache ~block with
    | Some Tt_cache.Cache.Exclusive -> page
    | Some Tt_cache.Cache.Shared when access = Tag.Load -> page
    | Some Tt_cache.Cache.Shared ->
        (* write hit on an unowned line: bus Invalidate transaction,
           snooped against the tag *)
        let tag = Pagemem.page_tag page ~index:(Addr.block_index vaddr) in
        if Tag.permits tag Tag.Store then begin
          Stats.Counter.incr n.c_upgrades;
          Thread.advance th t.params.Params.upgrade;
          Cache.set_state n.cache ~block Tt_cache.Cache.Exclusive;
          page
        end
        else block_fault t ~node n th access vaddr page
    | None ->
        (* miss: bus Read / Read-invalidate transaction *)
        let tag = Pagemem.page_tag page ~index:(Addr.block_index vaddr) in
        if Tag.permits tag access then begin
          Stats.Counter.incr n.c_local_misses;
          Thread.advance th t.params.Params.local_miss;
          (* the NP asserts "shared" for ReadOnly blocks so the CPU cannot
             own its copy *)
          let state =
            if Tag.equal tag Tag.Read_only then Tt_cache.Cache.Shared
            else Tt_cache.Cache.Exclusive
          in
          (* evictions are silent: values are written through to local
             memory and the perfect write buffer makes writebacks free *)
          ignore (Cache.insert n.cache ~block ~state);
          page
        end
        else block_fault t ~node n th access vaddr page
  end

(* The denied bus transaction: inhibit + relinquish-and-retry.  A separate
   function rather than a closure in [access_page], so a hit allocates
   nothing. *)
and block_fault t ~node n th access vaddr page =
  Thread.advance th t.params.Params.fault_detect;
  let tag = Pagemem.page_tag page ~index:(Addr.block_index vaddr) in
  let fault =
    {
      Tempest.fault_vaddr = vaddr;
      fault_access = access;
      fault_tag = tag;
      fault_mode = page.Pagemem.mode;
      fault_resumption = Tempest.make_resumption (fun () -> ());
    }
  in
  suspend_on_fault n th (fun resumption ->
      Np.post n.np ~at:(Thread.clock th)
        (Np.Block_fault { fault with Tempest.fault_resumption = resumption }));
  access_page t ~node th access vaddr

let cpu_access t ~node th access vaddr =
  ignore (access_page t ~node th access vaddr)

let cpu_read_f64 t ~node th vaddr =
  Pagemem.page_read_f64 (access_page t ~node th Tag.Load vaddr) ~vaddr

let cpu_write_f64 t ~node th vaddr v =
  let page = access_page t ~node th Tag.Store vaddr in
  (match t.on_dirty with
  | Some f -> f ~vpage:(Addr.page_of vaddr)
  | None -> ());
  Pagemem.page_write_f64 page ~vaddr v

let cpu_read_int t ~node th vaddr =
  Pagemem.page_read_int (access_page t ~node th Tag.Load vaddr) ~vaddr

let cpu_write_int t ~node th vaddr v =
  let page = access_page t ~node th Tag.Store vaddr in
  (match t.on_dirty with
  | Some f -> f ~vpage:(Addr.page_of vaddr)
  | None -> ());
  Pagemem.page_write_int page ~vaddr v

let merged_stats t =
  let out = Stats.create "typhoon" in
  Array.iter (fun n -> Stats.merge_into ~dst:out n.stats) t.nodes;
  Stats.merge_into ~dst:out (Fabric.stats t.fabric);
  Stats.merge_into ~dst:out (Reliable.stats t.net);
  (match Reliable.fault_stats t.net with
  | Some s -> Stats.merge_into ~dst:out s
  | None -> ());
  Stats.merge_into ~dst:out (Flow.stats t.flow);
  out

(* ------------------------------------------------------------------ *)
(* Progress and occupancy probes (watchdog integration)               *)
(* ------------------------------------------------------------------ *)

let set_on_dirty t f = t.on_dirty <- f

(* Total work items executed across all NPs: the machine's delivery
   progress metric.  Any live computation keeps increasing it, so a
   stationary value across a watchdog window means the machine is wedged. *)
let delivered t =
  Array.fold_left (fun acc n -> acc + Np.handled n.np) 0 t.nodes

let queue_summary t =
  let b = Buffer.create 64 in
  Array.iter
    (fun n ->
      let d = Np.depth n.np in
      if d > 0 then
        Buffer.add_string b (Printf.sprintf "np%d depth=%d; " n.id d))
    t.nodes;
  (* [Flow.describe] is never empty: it reports "no parked senders" *)
  Buffer.add_string b (Flow.describe t.flow);
  Buffer.contents b

let deadlock_probe t = Flow.deadlock t.flow
