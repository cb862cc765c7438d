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
module Stats = Tt_util.Stats
module Bitset = Tt_util.Bitset
module Inttbl = Tt_util.Inttbl
module Homes = Tt_mem.Homes

(* Per-block protocol trace (TT_DEBUG_BLOCK = global block number). *)
let dbg_on block = Tt_util.Debug.on ~key:block

let dbg block fmt = Tt_util.Debug.log ~key:block fmt

(* Message vocabulary of the hardware protocol. *)
let h_read = 0 (* requester -> home: read miss          args [block]        *)

let h_readex = 1 (* requester -> home: write miss       args [block]        *)

let h_upgrade = 2 (* requester -> home: upgrade          args [block]        *)

let h_recall = 3 (* home -> owner                       args [block; ex?]   *)

let h_inval = 4 (* home -> sharer                       args [block]        *)

let h_recall_data = 5 (* owner -> home                  args [block] + data *)

let h_inval_ack = 6 (* sharer -> home                   args [block]        *)

let h_data = 7 (* home -> requester                     args [block; ex?] + data *)

let h_upgrade_ok = 8 (* home -> requester               args [block]        *)

let h_writeback = 9 (* evictor -> home                  args [block] + data *)

let h_noop = 10 (* recovery sink: scrub target for crash-era held messages *)

(* Fill grants delivered back to a stalled CPU. *)
let grant_shared = 0

let grant_exclusive = 1

let grant_upgrade = 2

(* A minimal run-to-completion controller: the hardware directory engine of
   one node.  Same sequencing discipline as the Typhoon NP but fixed
   function. *)
module Ctrl = struct
  (* The inbox is a circular ring (power-of-two capacity) and the dispatch
     event is one preallocated closure, so accepting and draining protocol
     messages allocates nothing. *)
  type t = {
    engine : Engine.t;
    mutable clock : int;
    mutable busy : bool;
    mutable ring : Message.t array;
    mutable head : int;
    mutable count : int;
    mutable handled : int;
    mutable exec : Message.t -> unit;
    mutable self : unit -> unit;
    resv : Engine.reservation; (* a trailing yield's held place *)
  }

  let charge t n = t.clock <- t.clock + n

  let grow t =
    let cap = Array.length t.ring in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ring = Array.make ncap Message.dummy in
    for i = 0 to t.count - 1 do
      ring.(i) <- t.ring.((t.head + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.head <- 0

  let rec dispatch t () =
    if t.count = 0 then t.busy <- false
    else begin
      let msg = t.ring.(t.head) in
      t.ring.(t.head) <- Message.dummy;
      t.head <- (t.head + 1) land (Array.length t.ring - 1);
      t.count <- t.count - 1;
      t.handled <- t.handled + 1;
      t.exec msg;
      (* keep draining inline while no engine event is due at or before the
         controller clock; [skip_to] makes this observably identical to
         rescheduling one event per message (see Np.dispatch) *)
      if Engine.next_event_time t.engine > t.clock then begin
        Engine.skip_to t.engine t.clock;
        dispatch t ()
      end
      else if t.count = 0 && Engine.reserve t.engine t.resv t.clock then
        t.busy <- false
      else Engine.at t.engine t.clock t.self
    end

  let create engine =
    let t =
      { engine; clock = 0; busy = false; ring = [||]; head = 0;
        count = 0; handled = 0;
        exec = (fun _ -> invalid_arg "Ctrl: exec not installed");
        self = (fun () -> ()); resv = Engine.reservation engine }
    in
    t.self <- dispatch t;
    t

  let post t msg =
    if t.count = Array.length t.ring then grow t;
    t.ring.((t.head + t.count) land (Array.length t.ring - 1)) <- msg;
    t.count <- t.count + 1;
    if not t.busy then begin
      t.busy <- true;
      if not (Engine.claim t.engine t.resv t.self) then begin
        t.clock <- max t.clock (Engine.now t.engine);
        Engine.at t.engine t.clock t.self
      end
    end
end

type node = {
  id : int;
  mem : Pagemem.t; (* backing store for pages homed here *)
  tlb : Tlb.t;
  cache : Cache.t;
  ctrl : Ctrl.t;
  dir : Directory.t;
  stats : Stats.t;
  (* hot-path counters, pre-resolved from [stats] at create time *)
  c_accesses : Stats.counter;
  c_upgrades : Stats.counter;
  c_local_misses : Stats.counter;
  c_remote_misses : Stats.counter;
  c_local_protocol_misses : Stats.counter;
  c_invals_received : Stats.counter;
  c_writebacks : Stats.counter;
  c_recalls : Stats.counter;
  (* the CPU's outstanding miss: a CPU blocks on its miss, so a node has at
     most one.  [miss_block] is -1 when there is none; [miss_handler] is
     the request it sent, so crash recovery can re-issue a request whose
     home (or response) died with a node; [miss_wake] resumes the CPU,
     passing the replacement cycles the fill incurred *)
  mutable miss_block : int;
  mutable miss_handler : int;
  mutable miss_wake : int -> unit;
  (* writebacks of ours the home has not yet processed; the CPU must not
     take the directory fast path for such a block or a stale writeback
     would clear ownership it just re-acquired *)
  wb_inflight : int Inttbl.t;
  (* the CPU's last page-home resolution and the home's page, valid while
     [memo_gen] equals the home map's generation: an access and the typed
     read or write that follows it resolve the page once, and same-page
     streaks not at all *)
  mutable memo_vpage : int;
  mutable memo_home : int;
  mutable memo_page : Pagemem.page;
  mutable memo_gen : int;
}

type t = {
  engine : Engine.t;
  params : Params.t;
  fabric : Fabric.t;
  net : Reliable.t;
  nodes : node array;
  heap : Homes.t; (* the shared heap and its page-home map *)
  (* crash-stop recovery: the liveness verdict, and the write observer for
     checkpoint dirty tracking (every store lands in home memory, so one
     callback site per typed store covers all value mutation) *)
  mutable is_dead : int -> bool;
  mutable on_dirty : (vpage:int -> unit) option;
}

let engine t = t.engine

let params t = t.params

let nnodes t = Array.length t.nodes

let fabric t = t.fabric

let net t = t.net

let home_mem t i = t.nodes.(i).mem

let cpu_cache t i = t.nodes.(i).cache

let directory t i = t.nodes.(i).dir

let node_stats t i = t.nodes.(i).stats

let page_home t ~vpage = Homes.home t.heap ~vpage

(* Resolve [vpage] into node [n]'s memo, unless it is there already. *)
let memo_page t n ~vpage =
  let gen = Homes.generation t.heap in
  if vpage <> n.memo_vpage || n.memo_gen <> gen then begin
    let h = page_home t ~vpage in
    n.memo_vpage <- vpage;
    n.memo_home <- h;
    n.memo_page <- Pagemem.get_page t.nodes.(h).mem ~vpage;
    n.memo_gen <- gen
  end

let map_home_page t ~vpage ~home =
  ignore
    (Pagemem.map t.nodes.(home).mem ~vpage ~home ~mode:0
       ~init_tag:Tag.Read_write)

let map_shared_page t ~vpage ~home =
  Homes.bind t.heap ~vpage ~home;
  map_home_page t ~vpage ~home

(* Clear node [n]'s outstanding miss on [block], returning its wake. *)
let take_miss n block =
  if n.miss_block <> block then
    invalid_arg
      (Printf.sprintf "Dirnnb: node %d got a fill for 0x%x with no miss" n.id
         block);
  n.miss_block <- -1;
  n.miss_wake

let block_data = Bytes.make Addr.block_size '\000'
(* Data payloads are pure word accounting in DirNNB: values are canonical at
   the home memory (write-through-for-values model, DESIGN.md §4). *)

let send t ~src ~at ~dst ~vnet ~handler ~with_data args =
  let data = if with_data then block_data else Bytes.empty in
  Reliable.send t.net ~at (Message.make ~src ~dst ~vnet ~handler ~args ~data)

(* Eviction of an exclusively-held line: hardware writeback to home. *)
let writeback t node ~at block =
  if dbg_on block then
    dbg block "t=%d writeback from node=%d" at node.id;
  Stats.Counter.incr node.c_writebacks;
  Inttbl.replace node.wb_inflight block
    (1 + Option.value ~default:0 (Inttbl.find_opt node.wb_inflight block));
  let home = page_home t ~vpage:(block * Addr.block_size / Addr.page_size) in
  send t ~src:node.id ~at ~dst:home ~vnet:Message.Request
    ~handler:h_writeback ~with_data:true [| block |]

(* Fill a granted line at the requesting node's controller; returns the
   replacement cost (charged to the CPU when it resumes). *)
let ctrl_fill t node block grant =
  if dbg_on block then
    dbg block "t=%d fill node=%d grant=%d" node.ctrl.Ctrl.clock node.id grant;
  let state =
    if grant = grant_shared then Cache.Shared else Cache.Exclusive
  in
  if grant = grant_upgrade && Cache.probe node.cache ~block <> None then begin
    Cache.set_state node.cache ~block Cache.Exclusive;
    0
  end
  else
    match Cache.insert node.cache ~block ~state with
    | None -> 0
    | Some (victim, Cache.Shared) ->
        ignore victim;
        t.params.Params.repl_shared
    | Some (victim, Cache.Exclusive) ->
        writeback t node ~at:node.ctrl.Ctrl.clock victim;
        t.params.Params.repl_exclusive

(* Deliver a fill grant to the requester.  When the requester is the home
   node itself the grant is applied synchronously (the local cache fills as
   part of the bus transaction); a self-message would leave a window in
   which a drained queued request sees a cache state older than the
   directory state. *)
let deliver_grant t home ~requester block grant =
  let p = t.params in
  let ctrl = home.ctrl in
  let with_data = grant <> grant_upgrade in
  Ctrl.charge ctrl
    (p.Params.dir_per_msg + if with_data then p.Params.dir_block_send else 0);
  if requester = home.id then begin
    let wake = take_miss home block in
    wake (ctrl_fill t home block grant)
  end
  else if grant = grant_upgrade then
    send t ~src:home.id ~at:ctrl.Ctrl.clock ~dst:requester
      ~vnet:Message.Response ~handler:h_upgrade_ok ~with_data:false [| block |]
  else
    send t ~src:home.id ~at:ctrl.Ctrl.clock ~dst:requester
      ~vnet:Message.Response ~handler:h_data ~with_data:true
      [| block; (if grant = grant_exclusive then 1 else 0) |]

(* Register a sharer, honouring the limited-pointer ablation: past the
   pointer limit the entry degrades to "broadcast on invalidation". *)
let note_sharer t home (entry : Directory.entry) requester =
  Bitset.add entry.Directory.sharers requester;
  match t.params.Params.dir_limited_pointers with
  | Some limit when Bitset.cardinal entry.Directory.sharers > limit ->
      if not entry.Directory.overflowed then begin
        entry.Directory.overflowed <- true;
        Stats.incr home.stats "dir_overflows"
      end
  | Some _ | None -> ()

(* The nodes an exclusive grant must invalidate: the precise sharer list,
   or everybody when pointer overflow lost the information. *)
let inval_victims t home (entry : Directory.entry) ~requester =
  if entry.Directory.overflowed then begin
    Stats.incr home.stats "broadcast_invals";
    let all = ref [] in
    for n = Array.length t.nodes - 1 downto 0 do
      if n <> requester && n <> home.id then all := n :: !all
    done;
    !all
  end
  else
    List.filter (fun s -> s <> requester)
      (Bitset.to_list entry.Directory.sharers)

let clear_sharers (entry : Directory.entry) =
  Bitset.clear entry.Directory.sharers;
  entry.Directory.overflowed <- false

(* --- home-side directory transaction engine (runs in ctrl context) --- *)

let rec start_txn t home kind requester block =
  if dbg_on block then
    dbg block "t=%d start_txn home=%d kind=%s req=%d" home.ctrl.Ctrl.clock
      home.id
      (match kind with
      | Directory.Read -> "read"
      | Directory.Read_ex -> "readex"
      | Directory.Upgrade -> "upgrade")
      requester;
  let p = t.params in
  let ctrl = home.ctrl in
  let entry = Directory.entry home.dir ~block in
  match entry.Directory.busy with
  | Some _ -> Queue.add (kind, requester) entry.Directory.waiting
  | None -> (
      let reply_data ~ex =
        deliver_grant t home ~requester block
          (if ex then grant_exclusive else grant_shared)
      in
      (* A node requesting a block it nominally owns has lost its copy (the
         writeback is ordered ahead of this request); drop the stale
         registration. *)
      (if entry.Directory.owner = Some requester then
         entry.Directory.owner <- None);
      (* Copies in the home node's own cache are flushed by a local bus
         transaction (cache-to-cache / snoop), not by network messages. *)
      (if entry.Directory.owner = Some home.id && requester <> home.id then begin
         Ctrl.charge ctrl (p.Params.remote_inval + p.Params.repl_exclusive);
         (match kind with
         | Directory.Read ->
             Cache.downgrade home.cache ~block;
             Bitset.add entry.Directory.sharers home.id
         | Directory.Read_ex | Directory.Upgrade ->
             ignore (Cache.invalidate home.cache ~block));
         entry.Directory.owner <- None
       end);
      (match kind with
      | Directory.Read_ex | Directory.Upgrade ->
          if
            requester <> home.id
            && Bitset.mem entry.Directory.sharers home.id
          then begin
            Ctrl.charge ctrl (p.Params.remote_inval + p.Params.repl_shared);
            ignore (Cache.invalidate home.cache ~block);
            Bitset.remove entry.Directory.sharers home.id
          end
      | Directory.Read -> ());
      match kind with
      | Directory.Read -> (
          match entry.Directory.owner with
          | Some o when o <> requester ->
              Stats.Counter.incr home.c_recalls;
              entry.Directory.busy <-
                Some { Directory.kind; requester; acks_left = 1 };
              Ctrl.charge ctrl p.Params.dir_per_msg;
              send t ~src:home.id ~at:ctrl.Ctrl.clock ~dst:o
                ~vnet:Message.Request ~handler:h_recall ~with_data:false
                [| block; 0 |]
          | Some _ | None ->
              note_sharer t home entry requester;
              reply_data ~ex:false)
      | Directory.Read_ex -> (
          match entry.Directory.owner with
          | Some o when o <> requester ->
              Stats.Counter.incr home.c_recalls;
              entry.Directory.busy <-
                Some { Directory.kind; requester; acks_left = 1 };
              Ctrl.charge ctrl p.Params.dir_per_msg;
              send t ~src:home.id ~at:ctrl.Ctrl.clock ~dst:o
                ~vnet:Message.Request ~handler:h_recall ~with_data:false
                [| block; 1 |]
          | Some _ | None ->
              let victims = inval_victims t home entry ~requester in
              if victims = [] then begin
                entry.Directory.owner <- Some requester;
                clear_sharers entry;
                reply_data ~ex:true
              end
              else begin
                entry.Directory.busy <-
                  Some
                    { Directory.kind; requester;
                      acks_left = List.length victims };
                List.iter
                  (fun s ->
                    Ctrl.charge ctrl p.Params.dir_per_msg;
                    send t ~src:home.id ~at:ctrl.Ctrl.clock ~dst:s
                      ~vnet:Message.Request ~handler:h_inval
                      ~with_data:false [| block |])
                  victims
              end)
      | Directory.Upgrade ->
          if
            (not (Bitset.mem entry.Directory.sharers requester))
            && not entry.Directory.overflowed
          then
            (* stale upgrade (our copy was invalidated or silently evicted
               while the request was in flight): serve a full write miss *)
            start_txn t home Directory.Read_ex requester block
          else begin
            let victims = inval_victims t home entry ~requester in
            if victims = [] then begin
              entry.Directory.owner <- Some requester;
              clear_sharers entry;
              deliver_grant t home ~requester block grant_upgrade
            end
            else begin
              entry.Directory.busy <-
                Some
                  { Directory.kind; requester; acks_left = List.length victims };
              List.iter
                (fun s ->
                  Ctrl.charge ctrl p.Params.dir_per_msg;
                  send t ~src:home.id ~at:ctrl.Ctrl.clock ~dst:s
                    ~vnet:Message.Request ~handler:h_inval ~with_data:false
                    [| block |])
                victims
            end
          end)

let complete_txn t home block =
  let entry = Directory.entry home.dir ~block in
  entry.Directory.busy <- None;
  (* Drain queued requests: each may be granted immediately (leaving the
     entry idle) or start a new recall/invalidation round (re-setting busy,
     which stops the loop). *)
  let rec drain () =
    if entry.Directory.busy = None then
      match Queue.take_opt entry.Directory.waiting with
      | None -> ()
      | Some (kind, requester) ->
          Ctrl.charge home.ctrl t.params.Params.dir_op;
          start_txn t home kind requester block;
          drain ()
  in
  drain ()

let finish_txn t home block (txn : Directory.txn) =
  if dbg_on block then
    dbg block "t=%d finish_txn home=%d req=%d" home.ctrl.Ctrl.clock home.id
      txn.Directory.requester;
  let entry = Directory.entry home.dir ~block in
  if t.is_dead txn.Directory.requester then begin
    (* the requester died mid-transaction: the conflicting copies are gone
       (or going), so complete to a quiescent idle state instead of
       granting ownership into the void *)
    (match txn.Directory.kind with
    | Directory.Read ->
        (match entry.Directory.owner with
        | Some o when not (t.is_dead o) -> Bitset.add entry.Directory.sharers o
        | Some _ | None -> ());
        entry.Directory.owner <- None
    | Directory.Read_ex | Directory.Upgrade ->
        entry.Directory.owner <- None;
        clear_sharers entry);
    complete_txn t home block
  end
  else begin
  (match txn.Directory.kind with
  | Directory.Read ->
      (* old owner (if any) keeps a shared copy; requester joins *)
      (match entry.Directory.owner with
      | Some o -> Bitset.add entry.Directory.sharers o
      | None -> ());
      entry.Directory.owner <- None;
      note_sharer t home entry txn.Directory.requester;
      deliver_grant t home ~requester:txn.Directory.requester block
        grant_shared
  | Directory.Read_ex ->
      entry.Directory.owner <- Some txn.Directory.requester;
      clear_sharers entry;
      deliver_grant t home ~requester:txn.Directory.requester block
        grant_exclusive
  | Directory.Upgrade ->
      entry.Directory.owner <- Some txn.Directory.requester;
      clear_sharers entry;
      deliver_grant t home ~requester:txn.Directory.requester block
        grant_upgrade);
  complete_txn t home block
  end

let ctrl_exec t node msg =
  let p = t.params in
  let ctrl = node.ctrl in
  let args = msg.Message.args in
  let block = args.(0) in
  let handler = msg.Message.handler in
  if dbg_on block then
    dbg block "t=%d ctrl%d handler=%d src=%d" ctrl.Ctrl.clock node.id handler
      msg.Message.src;
  if handler = h_read || handler = h_readex || handler = h_upgrade then begin
    Ctrl.charge ctrl p.Params.dir_op;
    let kind =
      if handler = h_read then Directory.Read
      else if handler = h_readex then Directory.Read_ex
      else Directory.Upgrade
    in
    start_txn t node kind msg.Message.src block
  end
  else if handler = h_recall then begin
    (* we are the (former) owner: flush our copy and answer home *)
    Stats.Counter.incr node.c_invals_received;
    let ex = args.(1) = 1 in
    let present = Cache.probe node.cache ~block <> None in
    Ctrl.charge ctrl
      (p.Params.remote_inval
      + (if present then p.Params.repl_exclusive else 0));
    if present then
      if ex then ignore (Cache.invalidate node.cache ~block)
      else Cache.downgrade node.cache ~block;
    Ctrl.charge ctrl p.Params.dir_per_msg;
    send t ~src:node.id ~at:ctrl.Ctrl.clock ~dst:msg.Message.src
      ~vnet:Message.Response ~handler:h_recall_data ~with_data:present
      [| block |]
  end
  else if handler = h_inval then begin
    Stats.Counter.incr node.c_invals_received;
    let present = Cache.probe node.cache ~block <> None in
    Ctrl.charge ctrl
      (p.Params.remote_inval + (if present then p.Params.repl_shared else 0));
    ignore (Cache.invalidate node.cache ~block);
    Ctrl.charge ctrl p.Params.dir_per_msg;
    send t ~src:node.id ~at:ctrl.Ctrl.clock ~dst:msg.Message.src
      ~vnet:Message.Response ~handler:h_inval_ack ~with_data:false [| block |]
  end
  else if handler = h_recall_data then begin
    Ctrl.charge ctrl (p.Params.dir_op + p.Params.dir_block_recv);
    let entry = Directory.entry node.dir ~block in
    match entry.Directory.busy with
    | Some txn -> finish_txn t node block txn
    | None -> () (* stale recall answer after a writeback raced it *)
  end
  else if handler = h_inval_ack then begin
    Ctrl.charge ctrl p.Params.dir_op;
    let entry = Directory.entry node.dir ~block in
    match entry.Directory.busy with
    | Some txn ->
        txn.Directory.acks_left <- txn.Directory.acks_left - 1;
        if txn.Directory.acks_left = 0 then finish_txn t node block txn
    | None -> ()
  end
  else if handler = h_writeback then begin
    Ctrl.charge ctrl (p.Params.dir_op + p.Params.dir_block_recv);
    let src_node = t.nodes.(msg.Message.src) in
    (match Inttbl.find_opt src_node.wb_inflight block with
    | Some 1 -> Inttbl.remove src_node.wb_inflight block
    | Some n -> Inttbl.replace src_node.wb_inflight block (n - 1)
    | None -> ());
    let entry = Directory.entry node.dir ~block in
    match entry.Directory.owner with
    | Some o when o = msg.Message.src -> entry.Directory.owner <- None
    | Some _ | None -> ()
  end
  else if handler = h_data || handler = h_upgrade_ok then begin
    (* Response to our stalled CPU.  The cache controller fills the line
       here, when the reply lands — not when the CPU resumes — so a
       subsequent invalidate or recall can never slip between grant and
       fill. *)
    Ctrl.charge ctrl 1;
    let wake = take_miss node block in
    let grant =
      if handler = h_upgrade_ok then grant_upgrade
      else if args.(1) = 1 then grant_exclusive
      else grant_shared
    in
    wake (ctrl_fill t node block grant)
  end
  else if handler = h_noop then
    (* a crash-era message neutralized by the recovery scrub
       (Reliable.scrub_unacked): consume and discard *)
    Ctrl.charge ctrl 1
  else invalid_arg (Printf.sprintf "Dirnnb: unknown handler %d" handler)

let create ?(reliability = Reliable.Perfect) engine (p : Params.t) =
  (match Params.validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Dirnnb.System.create: " ^ msg));
  let prng = Tt_util.Prng.create ~seed:p.Params.seed in
  let fabric =
    Fabric.create engine ~nodes:p.Params.nodes ~latency:p.Params.net_latency
      ?words_per_cycle:p.Params.link_words_per_cycle ()
  in
  let net = Reliable.create engine fabric reliability in
  let nodes =
    Array.init p.Params.nodes (fun id ->
        let stats = Stats.create (Printf.sprintf "node%d" id) in
        {
          id;
          mem = Pagemem.create ~node:id ();
          tlb =
            Tlb.create ~entries:p.Params.cpu_tlb_entries
              ~miss_penalty:p.Params.tlb_miss ();
          cache =
            Cache.create ~name:(Printf.sprintf "cpu%d.cache" id)
              ~size_bytes:p.Params.cpu_cache_bytes
              ~assoc:p.Params.cpu_cache_assoc
              ~prng:(Tt_util.Prng.split prng) ();
          ctrl = Ctrl.create engine;
          dir = Directory.create ~nodes:p.Params.nodes;
          stats;
          c_accesses = Stats.counter stats "accesses";
          c_upgrades = Stats.counter stats "upgrades";
          c_local_misses = Stats.counter stats "local_misses";
          c_remote_misses = Stats.counter stats "remote_misses";
          c_local_protocol_misses = Stats.counter stats "local_protocol_misses";
          c_invals_received = Stats.counter stats "invals_received";
          c_writebacks = Stats.counter stats "writebacks";
          c_recalls = Stats.counter stats "recalls";
          miss_block = -1;
          miss_handler = -1;
          miss_wake = ignore;
          wb_inflight = Inttbl.create 4;
          memo_vpage = 0;
          memo_home = 0;
          memo_page = Pagemem.no_page;
          memo_gen = -1 (* matches no generation: nothing resolved yet *);
        })
  in
  let t =
    { engine; params = p; fabric; net; nodes;
      heap = Homes.create ~nodes:p.Params.nodes;
      is_dead = (fun _ -> false); on_dirty = None }
  in
  Array.iter
    (fun node ->
      node.ctrl.Ctrl.exec <- ctrl_exec t node;
      Reliable.set_receiver net ~node:node.id (fun msg ->
          Ctrl.post node.ctrl msg))
    nodes;
  t

let alloc t ~th ~node:_ ?home ?(align = 8) ~bytes () =
  Thread.advance th 10;
  Homes.alloc t.heap ~home ~align ~bytes ~place:(fun ~vpage ~home ->
      Thread.advance th 50;
      map_home_page t ~vpage ~home)

(* ------------------------------------------------------------------ *)
(* CPU access path                                                     *)
(* ------------------------------------------------------------------ *)

let fill_after_miss t node th block state =
  match Cache.insert node.cache ~block ~state with
  | None -> ()
  | Some (victim, vstate) -> (
      match vstate with
      | Cache.Shared -> Thread.advance th t.params.Params.repl_shared
      | Cache.Exclusive ->
          Thread.advance th t.params.Params.repl_exclusive;
          writeback t node ~at:(Thread.clock th) victim)

(* Send a miss/upgrade to the home directory and stall until the fill
   grant returns.  A local-home miss that needs directory work (conflicting
   remote copies) pays the local bus cost, not the remote-miss constants. *)
let miss_via_directory t node th ~home ~handler block =
  if node.miss_block >= 0 then
    invalid_arg
      (Printf.sprintf
         "Dirnnb: node %d missed on 0x%x with its miss on 0x%x outstanding"
         node.id block node.miss_block);
  let local = home = node.id in
  if local then begin
    Stats.Counter.incr node.c_local_protocol_misses;
    Thread.advance th 5
  end
  else begin
    Stats.Counter.incr node.c_remote_misses;
    Thread.advance th t.params.Params.remote_miss_base
  end;
  let msg =
    Message.make ~src:node.id ~dst:home ~vnet:Message.Request ~handler
      ~args:[| block |] ~data:Bytes.empty
  in
  let repl =
    Thread.await th (fun wake ->
        node.miss_block <- block;
        node.miss_handler <- handler;
        node.miss_wake <-
          (fun repl ->
            Thread.set_clock th (max (Thread.clock th) node.ctrl.Ctrl.clock);
            wake repl);
        Reliable.send t.net ~at:(Thread.clock th) msg)
  in
  Thread.advance th
    ((if local then t.params.Params.local_miss
      else t.params.Params.remote_miss_finish)
    + repl)

(* The directory fast path needs no transaction in flight at the home and
   no writeback of ours still travelling to it. *)
let entry_free n entry block =
  entry.Directory.busy = None
  && not (Inttbl.length n.wb_inflight > 0 && Inttbl.mem n.wb_inflight block)

let cpu_access t ~node th access vaddr =
  let n = t.nodes.(node) in
  Stats.Counter.incr n.c_accesses;
  Thread.maybe_yield th;
  Thread.advance th 1;
  let vpage = Addr.page_of vaddr in
  Thread.advance th (Tlb.access n.tlb vpage);
  memo_page t n ~vpage;
  let home_id = n.memo_home in
  let home = t.nodes.(home_id) in
  let block = Addr.block_of vaddr in
  let local = home_id = node in
  match Cache.lookup n.cache ~block with
  | Some Cache.Exclusive -> ()
  | Some Cache.Shared when access = Tag.Load -> ()
  | Some Cache.Shared ->
      (* upgrade *)
      Stats.Counter.incr n.c_upgrades;
      let entry = Directory.entry home.dir ~block in
      if
        local && entry_free n entry block
        && (not (Bitset.exists_except entry.Directory.sharers node))
        && entry.Directory.owner = None
        && not entry.Directory.overflowed
      then begin
        if dbg_on block then
          dbg block "t=%d cpu%d fastpath-upgrade" (Thread.clock th) node;
        Thread.advance th t.params.Params.upgrade;
        entry.Directory.owner <- Some node;
        Bitset.clear entry.Directory.sharers;
        Cache.set_state n.cache ~block Cache.Exclusive
      end
      else miss_via_directory t n th ~home:home_id ~handler:h_upgrade block
  | None -> (
      let entry = Directory.entry home.dir ~block in
      match access with
      | Tag.Load ->
          let conflict =
            match entry.Directory.owner with
            | Some o -> o <> node
            | None -> false
          in
          if local && entry_free n entry block && not conflict then begin
            if dbg_on block then
              dbg block "t=%d cpu%d fastpath-load" (Thread.clock th) node;
            Stats.Counter.incr n.c_local_misses;
            Thread.advance th t.params.Params.local_miss;
            let state =
              if
                (not (Bitset.exists_except entry.Directory.sharers node))
                && entry.Directory.owner = None
                && not entry.Directory.overflowed
              then Cache.Exclusive
              else Cache.Shared
            in
            if state = Cache.Exclusive then begin
              entry.Directory.owner <- Some node;
              Bitset.clear entry.Directory.sharers
            end
            else note_sharer t n entry node;
            fill_after_miss t n th block state
          end
          else miss_via_directory t n th ~home:home_id ~handler:h_read block
      | Tag.Store ->
          let conflict =
            Bitset.exists_except entry.Directory.sharers node
            || entry.Directory.overflowed
            ||
            match entry.Directory.owner with
            | Some o -> o <> node
            | None -> false
          in
          if local && entry_free n entry block && not conflict then begin
            if dbg_on block then
              dbg block "t=%d cpu%d fastpath-store" (Thread.clock th) node;
            Stats.Counter.incr n.c_local_misses;
            Thread.advance th t.params.Params.local_miss;
            entry.Directory.owner <- Some node;
            clear_sharers entry;
            fill_after_miss t n th block Cache.Exclusive
          end
          else miss_via_directory t n th ~home:home_id ~handler:h_readex block)

(* The home's page of [vaddr], where the typed access lands: the memo
   [cpu_access] filled, unless a stalled miss outlived a re-homing. *)
let cpu_page t ~node vaddr =
  let n = t.nodes.(node) in
  memo_page t n ~vpage:(Addr.page_of vaddr);
  n.memo_page

let cpu_read_f64 t ~node th vaddr =
  cpu_access t ~node th Tag.Load vaddr;
  Pagemem.page_read_f64 (cpu_page t ~node vaddr) ~vaddr

let cpu_write_f64 t ~node th vaddr v =
  cpu_access t ~node th Tag.Store vaddr;
  (match t.on_dirty with
  | Some f -> f ~vpage:(Addr.page_of vaddr)
  | None -> ());
  Pagemem.page_write_f64 (cpu_page t ~node vaddr) ~vaddr v

let cpu_read_int t ~node th vaddr =
  cpu_access t ~node th Tag.Load vaddr;
  Pagemem.page_read_int (cpu_page t ~node vaddr) ~vaddr

let cpu_write_int t ~node th vaddr v =
  cpu_access t ~node th Tag.Store vaddr;
  (match t.on_dirty with
  | Some f -> f ~vpage:(Addr.page_of vaddr)
  | None -> ());
  Pagemem.page_write_int (cpu_page t ~node vaddr) ~vaddr v

(* ------------------------------------------------------------------ *)
(* Crash-stop recovery                                                 *)
(* ------------------------------------------------------------------ *)

let set_is_dead t f = t.is_dead <- f

let set_on_dirty t f = t.on_dirty <- f

let noop_handler = h_noop

(* Checkpoint assist: a copy of [vpage]'s canonical content.  Home memory
   is always authoritative on DirNNB (every store lands there), so this
   only fails for unallocated pages.  Zero simulated cost — the
   checkpoint copy is modeled as overlapped with the barrier. *)
let snapshot_page t ~vpage =
  match Homes.find t.heap vpage with
  | -1 -> None
  | home -> (
      match Pagemem.find_page t.nodes.(home).mem ~vpage with
      | None -> None
      | Some page -> Some (Bytes.copy page.Pagemem.data))

(* Repair the machine after [dead]'s confirmed crash.  DirNNB's
   write-through-for-values model shapes the split: every store already
   landed in the home node's memory, so a dead sharer or owner loses
   nothing but directory bookkeeping — only pages *homed* on the victim
   lose their canonical content, and those come back from the caller's
   checkpoint ([restore ~vpage], [None] unless provably clean since the
   snapshot) or force a rollback upstream.

   Runs synchronously at the liveness verdict (the recovery daemon is
   modeled off the critical path); repair-triggered protocol messages are
   sent at the current cycle and pay normal network and directory costs. *)
let on_node_death t ~dead ~new_home ~restore =
  let nnodes = Array.length t.nodes in
  if dead < 0 || dead >= nnodes then
    invalid_arg "Dirnnb.on_node_death: bad victim";
  if new_home = dead || new_home < 0 || new_home >= nnodes
     || t.is_dead new_home
  then invalid_arg "Dirnnb.on_node_death: bad new home";
  let live n = n <> dead && not (t.is_dead n) in
  let now = Engine.now t.engine in
  (* repair work sends messages from controller context: pull every live
     controller's clock up to the verdict so nothing is sent in the past *)
  Array.iter
    (fun n ->
      if live n.id then n.ctrl.Ctrl.clock <- max n.ctrl.Ctrl.clock now)
    t.nodes;
  let deadn = t.nodes.(dead) in

  (* --- the victim's cache contents are gone ------------------------- *)
  let dead_blocks = ref [] in
  Cache.iter deadn.cache (fun block _ -> dead_blocks := block :: !dead_blocks);
  List.iter
    (fun block -> ignore (Cache.invalidate deadn.cache ~block))
    (List.sort compare !dead_blocks);
  Inttbl.reset deadn.wb_inflight;

  (* --- re-home pages homed on the victim ---------------------------- *)
  let dead_pages =
    List.filter_map
      (fun (vpage, home) -> if home = dead then Some vpage else None)
      (Homes.bindings t.heap)
  in
  let rehomed = Inttbl.create 16 in
  List.iter
    (fun vpage ->
      (match restore ~vpage with
      | None ->
          raise
            (Tt_net.Faults.Unrecoverable
               (Printf.sprintf
                  "dirnnb recovery: page 0x%x was homed on crashed node %d \
                   and no clean checkpoint covers it"
                  vpage dead))
      | Some bytes ->
          let page =
            Pagemem.map t.nodes.(new_home).mem ~vpage ~home:new_home ~mode:0
              ~init_tag:Tag.Read_write
          in
          Bytes.blit bytes 0 page.Tt_mem.Pagemem.data 0 Addr.page_size;
          Stats.add t.nodes.(new_home).stats "recovery.blocks_restored"
            Addr.blocks_per_page);
      Pagemem.unmap deadn.mem ~vpage;
      Homes.rehome t.heap ~vpage ~home:new_home;
      Inttbl.replace rehomed vpage ();
      Stats.incr t.nodes.(new_home).stats "recovery.pages_rehomed";
      (* rebuild the directory from the survivors' cache states — the
         user-level equivalent of polling every live node for its copies.
         Caches hold state only (values are canonical at home memory), so
         this loses no data. *)
      for index = 0 to Addr.blocks_per_page - 1 do
        let block = (vpage * Addr.blocks_per_page) + index in
        let entry = Directory.entry t.nodes.(new_home).dir ~block in
        entry.Directory.busy <- None;
        entry.Directory.owner <- None;
        clear_sharers entry;
        Queue.clear entry.Directory.waiting;
        for n = 0 to nnodes - 1 do
          if live n then
            match Cache.probe t.nodes.(n).cache ~block with
            | Some Cache.Exclusive -> entry.Directory.owner <- Some n
            | Some Cache.Shared -> Bitset.add entry.Directory.sharers n
            | None -> ()
        done;
        (* an owner and leftover sharers cannot coexist in a rebuilt
           entry — exclusivity is cache-enforced — but a lone exclusive
           holder found here keeps ownership, which is exactly what the
           old directory knew *)
        if entry.Directory.owner <> None then clear_sharers entry
      done)
    dead_pages;

  (* --- purge the victim from surviving directories ------------------ *)
  Array.iter
    (fun home ->
      if live home.id then begin
        let entries = ref [] in
        Directory.iter home.dir (fun block entry ->
            entries := (block, entry) :: !entries);
        List.iter
          (fun (block, (entry : Directory.entry)) ->
            (* requests the victim parked behind a busy transaction *)
            let keep = Queue.create () in
            Queue.iter
              (fun (kind, r) -> if r <> dead then Queue.add (kind, r) keep)
              entry.Directory.waiting;
            Queue.clear entry.Directory.waiting;
            Queue.transfer keep entry.Directory.waiting;
            match entry.Directory.busy with
            | Some txn ->
                if entry.Directory.owner = Some dead then begin
                  (* the recall target died: its recall_data will never
                     arrive, but home memory already holds current values
                     (write-through), so the transaction just finishes *)
                  entry.Directory.owner <- None;
                  finish_txn t home block txn
                end
                else begin
                  (* the victim may owe an invalidation ack: it was a
                     target iff it was a (possibly broadcast) sharer and
                     not the requester *)
                  let was_target =
                    dead <> txn.Directory.requester
                    && (Bitset.mem entry.Directory.sharers dead
                       || (entry.Directory.overflowed && dead <> home.id))
                  in
                  Bitset.remove entry.Directory.sharers dead;
                  if was_target then begin
                    txn.Directory.acks_left <- txn.Directory.acks_left - 1;
                    if txn.Directory.acks_left = 0 then
                      finish_txn t home block txn
                  end
                end
            | None ->
                Bitset.remove entry.Directory.sharers dead;
                if entry.Directory.owner = Some dead then
                  entry.Directory.owner <- None)
          (List.sort (fun (a, _) (b, _) -> compare a b) !entries)
      end)
    t.nodes;

  (* --- re-issue survivors' requests lost with the old home ---------- *)
  (* The stalled CPU's wake stays in its miss slot; only the request (or
     its response) died with the victim, so re-send the same request to
     the new home. *)
  Array.iter
    (fun n ->
      if
        live n.id && n.miss_block >= 0
        && Inttbl.mem rehomed (n.miss_block * Addr.block_size / Addr.page_size)
      then
        send t ~src:n.id ~at:now ~dst:new_home ~vnet:Message.Request
          ~handler:n.miss_handler ~with_data:false [| n.miss_block |])
    t.nodes

(* The victim resumed heartbeating: its cache was emptied and every page
   it homed has moved, so the only stale state is transport bookkeeping
   (scrubbed by the caller) and its own outstanding misses — re-send each
   to the block's current home and let the pending wake fire normally. *)
let on_node_rejoin t ~node =
  let n = t.nodes.(node) in
  Inttbl.reset n.wb_inflight;
  n.ctrl.Ctrl.clock <- max n.ctrl.Ctrl.clock (Engine.now t.engine);
  if n.miss_block >= 0 then begin
    let vpage = n.miss_block * Addr.block_size / Addr.page_size in
    send t ~src:node ~at:(Engine.now t.engine) ~dst:(page_home t ~vpage)
      ~vnet:Message.Request ~handler:n.miss_handler ~with_data:false
      [| n.miss_block |]
  end

(* Protocol messages executed across all directory controllers: the
   machine's delivery-progress metric for the watchdog (see Np.handled). *)
let delivered t =
  Array.fold_left (fun acc n -> acc + n.ctrl.Ctrl.handled) 0 t.nodes

let queue_summary t =
  let b = Buffer.create 64 in
  Array.iter
    (fun n ->
      if n.ctrl.Ctrl.count > 0 then
        Buffer.add_string b
          (Printf.sprintf "ctrl%d depth=%d; " n.id n.ctrl.Ctrl.count))
    t.nodes;
  if Buffer.length b = 0 then "all queues empty" else Buffer.contents b

let merged_stats t =
  let out = Stats.create "dirnnb" in
  Array.iter (fun n -> Stats.merge_into ~dst:out n.stats) t.nodes;
  Stats.merge_into ~dst:out (Fabric.stats t.fabric);
  Stats.merge_into ~dst:out (Reliable.stats t.net);
  (match Reliable.fault_stats t.net with
  | Some s -> Stats.merge_into ~dst:out s
  | None -> ());
  out

let check_invariants t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  Array.iter
    (fun home ->
      Directory.iter home.dir (fun block entry ->
          (match entry.Directory.busy with
          | Some _ -> fail "home %d block 0x%x: transaction left pending" home.id block
          | None -> ());
          if not (Queue.is_empty entry.Directory.waiting) then
            fail "home %d block 0x%x: waiters left queued" home.id block;
          match entry.Directory.owner with
          | Some o ->
              if Bitset.mem entry.Directory.sharers o then
                fail "home %d block 0x%x: owner %d also listed as sharer"
                  home.id block o;
              if not (Bitset.is_empty entry.Directory.sharers) then
                fail "home %d block 0x%x: owner and sharers coexist" home.id
                  block
          | None -> ()))
    t.nodes;
  (* Exclusively cached lines must be registered as owner at the home. *)
  Array.iter
    (fun node ->
      Cache.iter node.cache (fun block state ->
          if state = Cache.Exclusive then begin
            let vpage = block * Addr.block_size / Addr.page_size in
            match Homes.find t.heap vpage with
            | -1 -> ()
            | home_id -> (
                let entry = Directory.entry t.nodes.(home_id).dir ~block in
                match entry.Directory.owner with
                | Some o when o = node.id -> ()
                | Some o ->
                    fail
                      "block 0x%x cached exclusive at %d but owned by %d"
                      block node.id o
                | None ->
                    fail "block 0x%x cached exclusive at %d but unowned"
                      block node.id)
          end))
    t.nodes;
  (* Cross-node audit: a writable (Exclusive) copy excludes every other
     cached copy of the block, machine-wide. *)
  let copies = Inttbl.create 64 in
  Array.iter
    (fun node ->
      Cache.iter node.cache (fun block state ->
          let prev =
            Option.value ~default:[] (Inttbl.find_opt copies block)
          in
          Inttbl.replace copies block ((node.id, state) :: prev)))
    t.nodes;
  Inttbl.iter
    (fun block holders ->
      match List.filter (fun (_, s) -> s = Cache.Exclusive) holders with
      | [] -> ()
      | [ (owner, _) ] ->
          if List.length holders > 1 then
            fail "block 0x%x: exclusive at %d but also cached at %s" block
              owner
              (String.concat ", "
                 (List.filter_map
                    (fun (n, _) ->
                      if n = owner then None else Some (string_of_int n))
                    holders))
      | ex ->
          fail "block 0x%x: multiple exclusive copies (%s)" block
            (String.concat ", " (List.map (fun (n, _) -> string_of_int n) ex)))
    copies;
  (* Cross-node audit: every cached shared copy appears in its home
     directory's sharer set (unless precise identity was lost to the
     limited-pointer overflow, in which case invals broadcast anyway).
     The converse — a listed sharer without a copy — is legal: shared
     lines are evicted silently. *)
  Array.iter
    (fun node ->
      Cache.iter node.cache (fun block state ->
          if state = Cache.Shared then begin
            let vpage = block * Addr.block_size / Addr.page_size in
            match Homes.find t.heap vpage with
            | -1 -> ()
            | home_id -> (
                match Directory.find t.nodes.(home_id).dir ~block with
                | None ->
                    fail
                      "block 0x%x: cached shared at %d but home %d has no \
                       directory entry"
                      block node.id home_id
                | Some entry ->
                    if
                      (not entry.Directory.overflowed)
                      && (not (Bitset.mem entry.Directory.sharers node.id))
                      && entry.Directory.owner <> Some node.id
                    then
                      fail
                        "block 0x%x: cached shared at %d but absent from \
                         home %d's sharer set"
                        block node.id home_id)
          end))
    t.nodes;
  match !problem with None -> Ok () | Some msg -> Error msg
