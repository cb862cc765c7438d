module System = Tt_typhoon.System
module Thread = Tt_sim.Thread
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Message = Tt_net.Message
module Stats = Tt_util.Stats
module Inttbl = Tt_util.Inttbl
module Homes = Tt_mem.Homes

(* Per-block protocol trace (TT_DEBUG_BLOCK = block-base virtual address). *)
let dbg_on vaddr = Tt_util.Debug.on ~key:(Tt_mem.Addr.block_base vaddr)

let dbg vaddr fmt = Tt_util.Debug.log ~key:(Tt_mem.Addr.block_base vaddr) fmt

let mode_home = 1

let mode_remote = 2

(* Pages whose home-side service is modulated by an installed policy
   (protocol zoo, see Tt_custom.Proto).  Remote copies of such pages stay
   ordinary [mode_remote] stached pages; only the home end is retyped, so
   the invariant auditor knows the page plays by its policy's rules. *)
let mode_proto_home = 5

(* Handler instruction counts beyond the endpoint primitives' built-in
   costs, tuned so the common paths match §6: 14 NP instructions to request
   a block, 30 to respond with data, 20 at data arrival. *)
let c_req_extra = 5

let c_resp_extra = 9

let c_arrival_extra = 9

let c_inval_extra = 3

let c_ack_extra = 3

let c_recall_extra = 5

let c_page_fault_extra = 25

let c_writeback_extra = 5

let c_registry_lookup = 5

type node_state = {
  pending_remote : Tempest.resumption option Inttbl.t;
      (* block base va -> suspended CPU waiting for data, or [None] for an
         outstanding nonbinding prefetch (the Busy tag's purpose, §5.4) *)
  stache_fifo : int Queue.t; (* stached vpages in mapping order *)
}

(* Hooks by which a user-level policy layer (the protocol zoo) modulates
   home-side service without forking the engine.  All hooks run at the
   block's home, inside the home's NP handlers; cost is charged by the hook
   implementation, never here, so an absent policy is exactly free. *)
type policy_hooks = {
  ph_grant_kind :
    vaddr:int ->
    requester:int ->
    state:Dir.bstate ->
    [ `Ro | `Rw | `Up ] ->
    [ `Ro | `Rw | `Up ];
      (* may strengthen a remote request before service: migratory turns a
         read miss on a remotely-owned block into an ownership handoff;
         update policies turn an upgrade on a home-dirty block into a full
         write miss so fresh data is sent *)
  ph_home_store :
    Tempest.t -> vaddr:int -> Dir.block_dir -> Tempest.resumption -> bool;
      (* a home store fault hit a Shared block: return [true] after handling
         it update-style (grant write permission in place, keep the sharers,
         remember the block dirty) — the invalidation round is skipped.
         Return [false] to fall through to normal invalidate service. *)
  ph_note_get : vaddr:int -> requester:int -> kind:[ `Ro | `Rw | `Up ] -> unit;
  ph_note_invals : vaddr:int -> targets:int list -> home_store:bool -> unit;
  ph_note_recall : vaddr:int -> unit;
}

type t = {
  sys : System.t;
  mutable policy : policy_hooks option;
  heap : Homes.t; (* the shared heap and its page-home map *)
  node_states : node_state array;
  max_stache_pages : int option; (* [Params.stache_max_pages] *)
  (* [Params.sabotage]: the seeded coherence bug the torture harness
     (Tt_torture) must catch and shrink — [on_inval] acknowledges without
     dropping the read-only copy, so the sharer can read stale data *)
  sabotage : bool;
  counters : Stats.t;
  (* hot-path counters, pre-resolved from [counters] at install time so the
     protocol handlers never hash key strings per message *)
  c_inval : Stats.counter;
  c_recall : Stats.counter;
  c_get_ro : Stats.counter;
  c_get_rw : Stats.counter;
  c_upgrade : Stats.counter;
  c_prefetch_completed : Stats.counter;
  c_prefetch_issued : Stats.counter;
  c_home_faults : Stats.counter;
  c_writeback : Stats.counter;
  c_page_replacements : Stats.counter;
  c_sabotaged_invals : Stats.counter;
  (* message handler ids, assigned at install *)
  mutable h_get : int;
  mutable h_data : int;
  mutable h_upgrade_ok : int;
  mutable h_inval : int;
  mutable h_inval_ack : int;
  mutable h_recall : int;
  mutable h_recall_data : int;
  mutable h_writeback : int;
  mutable h_noop : int;
  (* crash-stop recovery state: the liveness verdict consulted when
     repairing directories, and the victim's own suspended CPUs collected
     at the death verdict to be re-fired if the node rejoins *)
  mutable is_dead : int -> bool;
  mutable stranded : (int * Tempest.resumption) list;
  c_rehomed : Stats.counter;
  c_restored : Stats.counter;
  c_repaired : Stats.counter;
  c_reissued : Stats.counter;
  c_stranded : Stats.counter;
}

let system t = t.sys

let stats t = t.counters

let set_policy t p = t.policy <- p

let kind_code = function `Ro -> 0 | `Rw -> 1 | `Up -> 2

let kind_of_code = function
  | 0 -> `Ro
  | 1 -> `Rw
  | 2 -> `Up
  | n -> invalid_arg (Printf.sprintf "Stache: bad request kind %d" n)

let node_state t i = t.node_states.(i)

let home_of t ~vaddr = Homes.home t.heap ~vpage:(Addr.page_of vaddr)

(* ------------------------------------------------------------------ *)
(* Home-side protocol engine                                           *)
(* ------------------------------------------------------------------ *)

let touch_dir (ep : Tempest.t) ~vaddr = ep.touch (Dir.dir_key ~vaddr)

let send_data t (ep : Tempest.t) ~vaddr ~dst ~rw =
  let data = ep.Tempest.force_read_block ~vaddr in
  ep.Tempest.charge c_resp_extra;
  ep.Tempest.send ~dst ~vnet:Message.Response ~handler:t.h_data
    ~args:[| vaddr; (if rw then 1 else 0) |] ~data

let send_upgrade_ok t (ep : Tempest.t) ~vaddr ~dst =
  ep.Tempest.charge c_resp_extra;
  ep.Tempest.send ~dst ~vnet:Message.Response ~handler:t.h_upgrade_ok
    ~args:[| vaddr |] ~data:Bytes.empty

(* Grant the block to [client] assuming all conflicting copies are gone and
   the directory reflects the post-grant state change made by the caller. *)
let grant t ep ~vaddr (bd : Dir.block_dir) client =
  match client with
  | Dir.Remote (r, `Ro) ->
      Sharers.add bd.Dir.sharers r;
      bd.Dir.state <- Dir.Shared;
      ep.Tempest.set_ro ~vaddr;
      ep.Tempest.downgrade ~vaddr;
      send_data t ep ~vaddr ~dst:r ~rw:false
  | Dir.Remote (r, `Rw) ->
      (* data must leave before the home copy is stamped Invalid *)
      send_data t ep ~vaddr ~dst:r ~rw:true;
      Sharers.clear bd.Dir.sharers;
      bd.Dir.state <- Dir.Remote_excl r;
      ep.Tempest.invalidate ~vaddr
  | Dir.Remote (r, `Up) ->
      Sharers.clear bd.Dir.sharers;
      bd.Dir.state <- Dir.Remote_excl r;
      ep.Tempest.invalidate ~vaddr;
      send_upgrade_ok t ep ~vaddr ~dst:r
  | Dir.Home (res, Tag.Load) ->
      (* home regains readability; state set by the caller *)
      ep.Tempest.set_ro ~vaddr;
      ep.Tempest.resume res
  | Dir.Home (res, Tag.Store) ->
      Sharers.clear bd.Dir.sharers;
      bd.Dir.state <- Dir.Idle;
      ep.Tempest.set_rw ~vaddr;
      ep.Tempest.resume res

(* Serve one request at the home node; queues behind pending transactions. *)
let rec serve t (ep : Tempest.t) ~vaddr (bd : Dir.block_dir) client =
  if dbg_on vaddr then
    dbg vaddr "serve home=%d client=%s state=%s pending=%b waiters=%d"
      ep.Tempest.node
      (match client with
      | Dir.Remote (r, k) ->
          Printf.sprintf "R%d:%s" r
            (match k with `Ro -> "ro" | `Rw -> "rw" | `Up -> "up")
      | Dir.Home (_, a) ->
          Printf.sprintf "H:%s"
            (match a with Tag.Load -> "ld" | Tag.Store -> "st"))
      (match bd.Dir.state with
      | Dir.Idle -> "idle"
      | Dir.Shared -> "shared"
      | Dir.Remote_excl o -> Printf.sprintf "excl%d" o)
      (bd.Dir.pending <> None)
      (Queue.length bd.Dir.waiters);
  touch_dir ep ~vaddr;
  if bd.Dir.pending <> None then Queue.add client bd.Dir.waiters
  else
    (* a policy may strengthen the request kind before service (re-applied
       when a queued waiter is drained — the directory state it depends on
       may have changed while the client waited) *)
    let client =
      match t.policy, client with
      | Some ph, Dir.Remote (r, k) ->
          let k' =
            ph.ph_grant_kind ~vaddr ~requester:r ~state:bd.Dir.state k
          in
          if k' = k then client else Dir.Remote (r, k')
      | (Some _ | None), _ -> client
    in
    match bd.Dir.state, client with
    (* ---- no conflicting copies: grant immediately ---- *)
    | Dir.Idle, Dir.Remote (r, `Up) ->
        (* stale upgrade: requester's copy vanished; serve as a write miss *)
        grant t ep ~vaddr bd (Dir.Remote (r, `Rw))
    | Dir.Idle, _ -> grant t ep ~vaddr bd client
    | Dir.Shared, Dir.Remote (_, `Ro) -> grant t ep ~vaddr bd client
    | Dir.Shared, Dir.Home (res, Tag.Load) ->
        (* spurious: ReadOnly home tag already permits loads *)
        ep.Tempest.resume res
    (* ---- update-style home store: policy keeps the sharers ---- *)
    | Dir.Shared, Dir.Home (res, Tag.Store)
      when (match t.policy with
           | Some ph -> ph.ph_home_store ep ~vaddr bd res
           | None -> false) ->
        (* the policy granted write permission in place and recorded the
           block dirty; stale read-only copies are refreshed at the next
           release point (or eagerly, per policy) *)
        ()
    (* ---- sharers must be invalidated first ---- *)
    | Dir.Shared, (Dir.Remote (_, (`Rw | `Up)) | Dir.Home (_, Tag.Store)) ->
        let requester =
          match client with Dir.Remote (r, _) -> Some r | Dir.Home _ -> None
        in
        let client =
          (* an upgrader that lost its copy needs data after all *)
          match client with
          | Dir.Remote (r, `Up) when not (Sharers.mem bd.Dir.sharers r) ->
              Dir.Remote (r, `Rw)
          | c -> c
        in
        let targets =
          List.filter
            (fun s -> Some s <> requester)
            (Sharers.to_list bd.Dir.sharers)
        in
        (match t.policy with
        | Some ph ->
            ph.ph_note_invals ~vaddr ~targets ~home_store:(requester = None)
        | None -> ());
        (* the home's own readable copy goes too *)
        ep.Tempest.invalidate ~vaddr;
        if targets = [] then begin
          Sharers.clear bd.Dir.sharers;
          grant t ep ~vaddr bd client
        end
        else begin
          bd.Dir.pending <-
            Some
              { Dir.client; acks_left = List.length targets; prev_owner = None };
          List.iter
            (fun s ->
              Stats.Counter.incr t.c_inval;
              ep.Tempest.charge c_inval_extra;
              ep.Tempest.send ~dst:s ~vnet:Message.Request ~handler:t.h_inval
                ~args:[| vaddr |] ~data:Bytes.empty)
            targets
        end
    (* ---- a remote exclusive copy must be recalled first ---- *)
    | Dir.Remote_excl o, _ ->
        let ex =
          match client with
          | Dir.Remote (_, (`Rw | `Up)) | Dir.Home (_, Tag.Store) -> true
          | Dir.Remote (_, `Ro) | Dir.Home (_, Tag.Load) -> false
        in
        (match t.policy with
        | Some ph -> ph.ph_note_recall ~vaddr
        | None -> ());
        Stats.Counter.incr t.c_recall;
        bd.Dir.pending <- Some { Dir.client; acks_left = 1; prev_owner = Some o };
        ep.Tempest.charge c_recall_extra;
        ep.Tempest.send ~dst:o ~vnet:Message.Request ~handler:t.h_recall
          ~args:[| vaddr; (if ex then 1 else 0) |] ~data:Bytes.empty

and finish_pending t ep ~vaddr (bd : Dir.block_dir) =
  let pending = Option.get bd.Dir.pending in
  bd.Dir.pending <- None;
  grant t ep ~vaddr bd pending.Dir.client;
  drain_waiters t ep ~vaddr bd

(* Complete a recall.  Home memory holds the block's only copy now, so an
   upgrade needs data after all; a read leaves the block Shared, with
   [joined] (the former owner, when it answered with its copy) a sharer. *)
and finish_recall t ep ~vaddr (bd : Dir.block_dir) ~joined =
  match bd.Dir.pending with
  | None -> ()
  | Some pending ->
      bd.Dir.pending <- None;
      let client =
        match pending.Dir.client with
        | Dir.Remote (r, `Up) -> Dir.Remote (r, `Rw)
        | c -> c
      in
      (match client with
      | Dir.Remote (_, `Ro) | Dir.Home (_, Tag.Load) ->
          Sharers.clear bd.Dir.sharers;
          (match joined with
          | Some o -> Sharers.add bd.Dir.sharers o
          | None -> ());
          bd.Dir.state <- Dir.Shared
      | Dir.Remote (_, (`Rw | `Up)) | Dir.Home (_, Tag.Store) -> ());
      grant t ep ~vaddr bd client;
      drain_waiters t ep ~vaddr bd

and drain_waiters t ep ~vaddr bd =
  if bd.Dir.pending = None then
    match Queue.take_opt bd.Dir.waiters with
    | Some client ->
        ep.Tempest.charge 2;
        serve t ep ~vaddr bd client;
        drain_waiters t ep ~vaddr bd
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

(* home <- requester: get a block *)
let on_get t (ep : Tempest.t) ~src ~args ~data:_ =
  let vaddr = args.(0) and kind = kind_of_code args.(1) in
  Stats.Counter.incr
    (match kind with `Ro -> t.c_get_ro | `Rw -> t.c_get_rw | `Up -> t.c_upgrade);
  (match t.policy with
  | Some ph -> ph.ph_note_get ~vaddr ~requester:src ~kind
  | None -> ());
  let bd = Dir.block_of ep ~vaddr in
  serve t ep ~vaddr bd (Dir.Remote (src, kind))

(* Take the request a [what] reply for [vaddr] answers: its suspended CPU,
   or [None] for a prefetch. *)
let take_pending t (ep : Tempest.t) ~vaddr what =
  let ns = node_state t ep.Tempest.node in
  match Inttbl.find_opt ns.pending_remote vaddr with
  | None ->
      invalid_arg
        (Printf.sprintf "Stache: node %d got %s for 0x%x with no request"
           ep.Tempest.node what vaddr)
  | Some pending ->
      Inttbl.remove ns.pending_remote vaddr;
      pending

(* The reply has been applied: resume the waiting CPU, or count the
   prefetch done. *)
let arrived t (ep : Tempest.t) pending =
  ep.Tempest.charge c_arrival_extra;
  match pending with
  | Some resumption -> ep.Tempest.resume resumption
  | None -> Stats.Counter.incr t.c_prefetch_completed

(* requester <- home: block data *)
let on_data t (ep : Tempest.t) ~src:_ ~args ~data =
  let vaddr = args.(0) and rw = args.(1) = 1 in
  if dbg_on vaddr then
    dbg vaddr "data at node=%d rw=%b" ep.Tempest.node rw;
  let pending = take_pending t ep ~vaddr "data" in
  ep.Tempest.force_write_block ~vaddr data;
  (if rw then ep.Tempest.set_rw ~vaddr else ep.Tempest.set_ro ~vaddr);
  arrived t ep pending

(* requester <- home: upgrade granted without data *)
let on_upgrade_ok t (ep : Tempest.t) ~src:_ ~args ~data:_ =
  let vaddr = args.(0) in
  let pending = take_pending t ep ~vaddr "upgrade-ok" in
  ep.Tempest.set_rw ~vaddr;
  arrived t ep pending

(* sharer <- home: drop your read-only copy *)
let on_inval t (ep : Tempest.t) ~src ~args ~data:_ =
  let vaddr = args.(0) in
  if t.sabotage then
    (* seeded bug: ack without invalidating, keeping a stale RO copy *)
    Stats.Counter.incr t.c_sabotaged_invals
  else if ep.Tempest.page_mapped ~vpage:(Addr.page_of vaddr) then
    ep.Tempest.invalidate ~vaddr;
  ep.Tempest.charge c_inval_extra;
  ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_inval_ack
    ~args:[| vaddr |] ~data:Bytes.empty

(* home <- sharer *)
let on_inval_ack t (ep : Tempest.t) ~src:_ ~args ~data:_ =
  let vaddr = args.(0) in
  if dbg_on vaddr then
    dbg vaddr "inval_ack at home=%d" ep.Tempest.node;
  let bd = Dir.block_of ep ~vaddr in
  touch_dir ep ~vaddr;
  ep.Tempest.charge c_ack_extra;
  match bd.Dir.pending with
  | None -> () (* ack for a transaction a racing writeback already closed *)
  | Some pending ->
      pending.Dir.acks_left <- pending.Dir.acks_left - 1;
      if pending.Dir.acks_left = 0 then begin
        Sharers.clear bd.Dir.sharers;
        finish_pending t ep ~vaddr bd
      end

(* owner <- home: give the block back (ex=1 also relinquish it) *)
let on_recall t (ep : Tempest.t) ~src ~args ~data:_ =
  let vaddr = args.(0) and ex = args.(1) = 1 in
  if dbg_on vaddr then
    dbg vaddr "recall at owner=%d ex=%b" ep.Tempest.node ex;
  ep.Tempest.charge c_recall_extra;
  let mapped = ep.Tempest.page_mapped ~vpage:(Addr.page_of vaddr) in
  let have = mapped && Tag.equal (ep.Tempest.read_tag ~vaddr) Tag.Read_write in
  if have then begin
    let data = ep.Tempest.force_read_block ~vaddr in
    if ex then ep.Tempest.invalidate ~vaddr
    else begin
      ep.Tempest.set_ro ~vaddr;
      ep.Tempest.downgrade ~vaddr
    end;
    ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_recall_data
      ~args:[| vaddr; 1; (if ex then 1 else 0) |] ~data
  end
  else
    (* our copy is gone (page replaced; the writeback is ahead of this nack
       in FIFO order, so home memory is already current) *)
    ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_recall_data
      ~args:[| vaddr; 0; (if ex then 1 else 0) |] ~data:Bytes.empty

(* home <- former owner *)
let on_recall_data t (ep : Tempest.t) ~src ~args ~data =
  let vaddr = args.(0) and present = args.(1) = 1 in
  if dbg_on vaddr then
    dbg vaddr "recall_data from=%d present=%b" src present;
  let bd = Dir.block_of ep ~vaddr in
  touch_dir ep ~vaddr;
  ep.Tempest.charge c_ack_extra;
  if present then ep.Tempest.force_write_block ~vaddr data;
  finish_recall t ep ~vaddr bd ~joined:(if present then Some src else None)

(* home <- replacing node: modified block flushed during page replacement *)
let on_writeback t (ep : Tempest.t) ~src ~args ~data =
  let vaddr = args.(0) in
  Stats.Counter.incr t.c_writeback;
  let bd = Dir.block_of ep ~vaddr in
  touch_dir ep ~vaddr;
  ep.Tempest.charge c_writeback_extra;
  ep.Tempest.force_write_block ~vaddr data;
  match bd.Dir.state with
  | Dir.Remote_excl o when o = src ->
      bd.Dir.state <- Dir.Idle;
      ep.Tempest.set_rw ~vaddr
  | Dir.Remote_excl _ | Dir.Idle | Dir.Shared -> ()

(* Recovery sink: the scrub ({!Tt_net.Reliable.scrub_unacked}) rewrites
   held crash-era messages to this handler, so replayed queues keep their
   sequence numbers but land harmlessly. *)
let on_noop _t (ep : Tempest.t) ~src:_ ~args:_ ~data:_ = ep.Tempest.charge 1

(* ------------------------------------------------------------------ *)
(* Fault handlers                                                      *)
(* ------------------------------------------------------------------ *)

(* Ask [vaddr]'s home for the block, leaving [waiter] (a suspended CPU, or
   [None] for a prefetch) to be resumed by the reply. *)
let request t (ep : Tempest.t) ~vaddr kind ~extra waiter =
  ep.Tempest.set_busy ~vaddr;
  Inttbl.replace (node_state t ep.Tempest.node).pending_remote vaddr waiter;
  ep.Tempest.charge extra;
  ep.Tempest.send ~dst:(home_of t ~vaddr) ~vnet:Message.Request
    ~handler:t.h_get ~args:[| vaddr; kind_code kind |] ~data:Bytes.empty

(* Block fault on a stached (remote) page: request the block from home. *)
let remote_block_fault t (ep : Tempest.t) (fault : Tempest.fault) =
  let vaddr = Addr.block_base fault.Tempest.fault_vaddr in
  if dbg_on vaddr then
    dbg vaddr "fault node=%d access=%s tag=%s" ep.Tempest.node
      (match fault.Tempest.fault_access with
      | Tag.Load -> "ld"
      | Tag.Store -> "st")
      (Tag.to_string fault.Tempest.fault_tag);
  let kind =
    match fault.Tempest.fault_access, fault.Tempest.fault_tag with
    | Tag.Load, _ -> `Ro
    | Tag.Store, Tag.Read_only -> `Up
    | Tag.Store, _ -> `Rw
  in
  let ns = node_state t ep.Tempest.node in
  if Inttbl.mem ns.pending_remote vaddr then begin
    (* a nonbinding prefetch is already in flight: just wait for it *)
    ep.Tempest.charge 2;
    Inttbl.replace ns.pending_remote vaddr
      (Some fault.Tempest.fault_resumption)
  end
  else begin
    (* the mapping-table lookup *)
    ep.Tempest.touch (Addr.page_of vaddr);
    request t ep ~vaddr kind ~extra:c_req_extra
      (Some fault.Tempest.fault_resumption)
  end

(* Block fault on a home page: operate on the directory directly (§3). *)
let home_block_fault t (ep : Tempest.t) (fault : Tempest.fault) =
  Stats.Counter.incr t.c_home_faults;
  let vaddr = Addr.block_base fault.Tempest.fault_vaddr in
  let bd = Dir.block_of ep ~vaddr in
  ep.Tempest.charge c_req_extra;
  serve t ep ~vaddr bd
    (Dir.Home (fault.Tempest.fault_resumption, fault.Tempest.fault_access))

(* Flush one stached page back to its home and unmap it (FIFO victim). *)
let replace_page t (ep : Tempest.t) ~vpage =
  Stats.Counter.incr t.c_page_replacements;
  let base = vpage * Addr.page_size in
  for index = 0 to Addr.blocks_per_page - 1 do
    let vaddr = base + (index * Addr.block_size) in
    ep.Tempest.charge 2;
    match ep.Tempest.read_tag ~vaddr with
    | Tag.Read_write ->
        (* the only up-to-date copy: send it home *)
        let data = ep.Tempest.force_read_block ~vaddr in
        ep.Tempest.charge c_writeback_extra;
        ep.Tempest.send ~dst:(ep.Tempest.page_home ~vpage)
          ~vnet:Message.Request ~handler:t.h_writeback
          ~args:[| vaddr |] ~data
    | Tag.Read_only | Tag.Invalid ->
        (* read-only copies are dropped silently; the home directory keeps a
           stale sharer entry and future invalidations are simply acked *)
        ()
    | Tag.Busy ->
        invalid_arg
          (Printf.sprintf
             "Stache: replacing page 0x%x with an outstanding request at 0x%x"
             vpage vaddr)
  done;
  ep.Tempest.unmap_page ~vpage

(* Page fault: first access to a shared page from a non-home node. *)
let page_fault t (ep : Tempest.t) ~vaddr (_ : Tag.access) resumption =
  let vpage = Addr.page_of vaddr in
  let home = Homes.find t.heap vpage in
  if home < 0 then
    invalid_arg
      (Printf.sprintf
         "Stache: page fault at 0x%x outside the shared heap (node %d)" vaddr
         ep.Tempest.node);
  if home = ep.Tempest.node then
    invalid_arg
      (Printf.sprintf "Stache: home page 0x%x faulted unmapped on its own node"
         vpage);
  let ns = node_state t ep.Tempest.node in
  ep.Tempest.charge (c_page_fault_extra + c_registry_lookup);
  (match t.max_stache_pages with
  | Some cap ->
      (* the FIFO may hold stale entries (pages unmapped or retyped by
         crash recovery); drop those until a real victim is replaced or
         capacity is fine *)
      let rec make_room () =
        if Queue.length ns.stache_fifo >= cap then begin
          let victim = Queue.pop ns.stache_fifo in
          let mem = System.node_mem t.sys ep.Tempest.node in
          if
            Tt_mem.Pagemem.is_mapped mem ~vpage:victim
            && (Tt_mem.Pagemem.get_page mem ~vpage:victim).Tt_mem.Pagemem.mode
               = mode_remote
          then replace_page t ep ~vpage:victim
          else make_room ()
        end
      in
      make_room ()
  | None -> ());
  ep.Tempest.map_page ~vpage ~home ~mode:mode_remote ~init_tag:Tag.Invalid;
  Queue.add vpage ns.stache_fifo;
  ep.Tempest.resume resumption

(* ------------------------------------------------------------------ *)
(* Installation and allocation                                         *)
(* ------------------------------------------------------------------ *)

let install sys =
  let counters = Stats.create "stache" in
  let params = System.params sys in
  let t =
    {
      sys;
      policy = None;
      heap = Homes.create ~nodes:(System.nnodes sys);
      node_states =
        Array.init (System.nnodes sys) (fun _ ->
            { pending_remote = Inttbl.create 8;
              stache_fifo = Queue.create () });
      max_stache_pages = params.Params.stache_max_pages;
      sabotage = params.Params.sabotage;
      counters;
      c_inval = Stats.counter counters "inval";
      c_recall = Stats.counter counters "recall";
      c_get_ro = Stats.counter counters "get_ro";
      c_get_rw = Stats.counter counters "get_rw";
      c_upgrade = Stats.counter counters "upgrade";
      c_prefetch_completed = Stats.counter counters "prefetch_completed";
      c_prefetch_issued = Stats.counter counters "prefetch_issued";
      c_home_faults = Stats.counter counters "home_faults";
      c_writeback = Stats.counter counters "writeback";
      c_page_replacements = Stats.counter counters "page_replacements";
      c_sabotaged_invals = Stats.counter counters "sabotaged_invals";
      h_get = -1; h_data = -1; h_upgrade_ok = -1; h_inval = -1;
      h_inval_ack = -1; h_recall = -1; h_recall_data = -1; h_writeback = -1;
      h_noop = -1;
      is_dead = (fun _ -> false);
      stranded = [];
      c_rehomed = Stats.counter counters "recovery.pages_rehomed";
      c_restored = Stats.counter counters "recovery.blocks_restored";
      c_repaired = Stats.counter counters "recovery.txns_repaired";
      c_reissued = Stats.counter counters "recovery.reissued";
      c_stranded = Stats.counter counters "recovery.stranded_resumes";
    }
  in
  let tables = System.handlers sys in
  let reg f = Tempest.Handlers.register_message tables (f t) in
  t.h_get <- reg on_get;
  t.h_data <- reg on_data;
  t.h_upgrade_ok <- reg on_upgrade_ok;
  t.h_inval <- reg on_inval;
  t.h_inval_ack <- reg on_inval_ack;
  t.h_recall <- reg on_recall;
  t.h_recall_data <- reg on_recall_data;
  t.h_writeback <- reg on_writeback;
  t.h_noop <- reg on_noop;
  Tempest.Handlers.set_block_fault tables ~mode:mode_home (home_block_fault t);
  (* policy-retyped home pages fault into the same engine; the installed
     policy hooks modulate service per page *)
  Tempest.Handlers.set_block_fault tables ~mode:mode_proto_home
    (home_block_fault t);
  Tempest.Handlers.set_block_fault tables ~mode:mode_remote
    (remote_block_fault t);
  Tempest.Handlers.set_page_fault tables (page_fault t);
  t

(* Create a shared home page: map it at the home node with ReadWrite tags
   and a fresh directory. *)
let create_home_page t ~vpage ~home =
  let ep = System.endpoint t.sys home in
  ep.Tempest.map_page ~vpage ~home ~mode:mode_home ~init_tag:Tag.Read_write;
  ep.Tempest.set_page_user ~vpage
    (Dir.Home_dir (Dir.create_page_dir ~nodes:(System.nnodes t.sys)))

let alloc t ~th ~node ?home ?(align = 8) ~bytes () =
  System.with_cpu_context t.sys ~node th (fun () ->
      Thread.advance th 10;
      Homes.alloc t.heap ~home ~align ~bytes ~place:(fun ~vpage ~home ->
          Thread.advance th 50;
          create_home_page t ~vpage ~home))

(* ------------------------------------------------------------------ *)
(* Prefetch                                                            *)
(* ------------------------------------------------------------------ *)

let prefetch t ~th ~node ~vaddr kind =
  let vaddr = Addr.block_base vaddr in
  let vpage = Addr.page_of vaddr in
  let mem = System.node_mem t.sys node in
  let ns = node_state t node in
  System.with_cpu_context t.sys ~node th (fun () ->
      Thread.advance th 3;
      let eligible =
        Tt_mem.Pagemem.is_mapped mem ~vpage
        && (Tt_mem.Pagemem.get_page mem ~vpage).Tt_mem.Pagemem.mode
           = mode_remote
        && Tag.equal (Tt_mem.Pagemem.get_tag mem ~vaddr) Tag.Invalid
        && not (Inttbl.mem ns.pending_remote vaddr)
      in
      if eligible then begin
        Stats.Counter.incr t.c_prefetch_issued;
        request t (System.endpoint t.sys node) ~vaddr kind ~extra:0 None
      end)

(* ------------------------------------------------------------------ *)
(* Crash-stop recovery (re-homing and rejoin)                          *)
(* ------------------------------------------------------------------ *)

let set_is_dead t f = t.is_dead <- f

let noop_handler t =
  if t.h_noop < 0 then invalid_arg "Stache.noop_handler: not installed";
  t.h_noop

let heap t = t.heap

(* Checkpoint assist: the authoritative content of [vpage] as seen from
   its home, or [None] when home memory cannot be trusted (a block is
   dirty at a remote owner or mid-transaction).  The checkpoint layer
   calls this at barriers; a [None] simply leaves the page's previous
   snapshot stale, which the restore-validity bookkeeping already
   handles.  Zero simulated cost: the checkpoint copy is modeled as
   overlapped with the barrier. *)
let snapshot_page t ~vpage =
  match Homes.find t.heap vpage with
  | -1 -> None
  | home -> (
      let mem = System.node_mem t.sys home in
      match Tt_mem.Pagemem.find_page mem ~vpage with
      | None -> None
      | Some page -> (
          match page.Tt_mem.Pagemem.user with
          | Dir.Home_dir dir ->
              let clean =
                Array.for_all
                  (fun bd ->
                    bd.Dir.pending = None
                    &&
                    match bd.Dir.state with
                    | Dir.Idle | Dir.Shared -> true
                    | Dir.Remote_excl _ -> false)
                  dir
              in
              if clean then Some (Bytes.copy page.Tt_mem.Pagemem.data)
              else None
          | _ -> None))

(* Raw VM surgery used only by the recovery paths.  It mirrors the
   endpoint's unmap but runs outside any charging context: the verdict
   fires in a bare engine event, and recovery's metadata surgery is
   modeled at zero simulated cost — the recovery daemon runs off the
   critical path.  Protocol-visible actions (grants, re-issued requests,
   resumption fires) still go through NP chores and pay normally. *)
let raw_unmap t ~node ~vpage =
  let mem = System.node_mem t.sys node in
  if Tt_mem.Pagemem.is_mapped mem ~vpage then begin
    Tt_mem.Pagemem.unmap mem ~vpage;
    Tt_mem.Pagemem.invalidate_translation mem;
    Tt_cache.Cache.flush_page (System.cpu_cache t.sys node) ~vpage;
    Tt_mem.Tlb.flush_entry (System.cpu_tlb t.sys node) vpage;
    Tt_mem.Tlb.flush_entry (Tt_typhoon.Np.rtlb (System.node_np t.sys node))
      vpage
  end

(* Schedule protocol work on [node]'s NP, charged and serialized like any
   other deferred NP work item. *)
let post_chore t ~node f =
  let np = System.node_np t.sys node in
  let engine = System.engine t.sys in
  Tt_typhoon.Np.post_deferred np
    ~at:(max (Tt_sim.Engine.now engine) (Tt_typhoon.Np.clock np))
    f

(* Re-fire a suspended CPU of [node] from an NP chore: it retries its
   access against the current tags and mapping. *)
let refire t ~node res =
  Stats.Counter.incr t.c_reissued;
  post_chore t ~node (fun () -> (System.endpoint t.sys node).Tempest.resume res)

(* A node's outstanding requests in address order. *)
let sorted_pending ns =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Inttbl.fold (fun vaddr p acc -> (vaddr, p) :: acc) ns.pending_remote [])

(* Re-home every page whose home died and repair every surviving
   directory that references the victim.  Runs synchronously inside the
   liveness verdict; by the lease arithmetic (lease >> max in-flight
   delay) all pre-crash traffic has already resolved, so the survivors'
   tags and directories are quiescent with respect to the victim — the
   only loose ends are transactions waiting forever on it.

   [restore ~vpage] must return the page's last checkpoint image only if
   no write has dirtied the page since that checkpoint was taken;
   otherwise [None], which makes the loss unrecoverable in place
   ({!Tt_net.Faults.Unrecoverable}) and forces a rollback upstream. *)
let on_node_death t ~dead ~new_home ~restore =
  let nnodes = System.nnodes t.sys in
  if dead < 0 || dead >= nnodes then
    invalid_arg "Stache.on_node_death: bad victim";
  if new_home = dead || new_home < 0 || new_home >= nnodes
     || t.is_dead new_home
  then invalid_arg "Stache.on_node_death: bad new home";
  let live n = n <> dead && not (t.is_dead n) in
  let dead_mem = System.node_mem t.sys dead in
  let unrecoverable fmt =
    Printf.ksprintf
      (fun s -> raise (Tt_net.Faults.Unrecoverable ("stache recovery: " ^ s)))
      fmt
  in
  (* checkpoint lookups, memoized so each page is fetched at most once *)
  let snapshots = Inttbl.create 8 in
  let restore_block ~vpage ~vaddr ~into_mem ~why =
    let snap =
      match Inttbl.find_opt snapshots vpage with
      | Some s -> s
      | None ->
          let s = restore ~vpage in
          Inttbl.replace snapshots vpage s;
          s
    in
    match snap with
    | None ->
        unrecoverable
          "block 0x%x: %s and no clean checkpoint covers page 0x%x" vaddr why
          vpage
    | Some bytes ->
        let off = vaddr - (vpage * Addr.page_size) in
        Tt_mem.Pagemem.write_block_from into_mem ~vaddr ~src:bytes
          ~src_pos:off;
        Stats.Counter.incr t.c_restored
  in
  (* a deterministic, sorted view of the mapping table *)
  let all_pages = Homes.bindings t.heap in
  let dead_pages =
    List.filter_map
      (fun (vpage, home) -> if home = dead then Some vpage else None)
      all_pages
  in
  let rehomed = Inttbl.create 16 in
  List.iter (fun vpage -> Inttbl.replace rehomed vpage ()) dead_pages;

  (* --- Phase A: neutralize the victim ------------------------------- *)
  (* Every copy it holds is gone as far as survivors are concerned.  Its
     local bookkeeping (pending_remote, suspended CPUs in its own
     directories) is kept only for the victim's own rejoin — it is never
     read to reconstruct survivor state. *)
  let strand res =
    t.stranded <- (dead, res) :: t.stranded;
    Stats.Counter.incr t.c_stranded
  in
  let victim_pages = ref [] in
  Tt_mem.Pagemem.iter_pages dead_mem (fun vpage page ->
      victim_pages := (vpage, page) :: !victim_pages);
  List.iter
    (fun (vpage, page) ->
      (match page.Tt_mem.Pagemem.user with
      | Dir.Home_dir dir when page.Tt_mem.Pagemem.mode = mode_home ->
          (* the victim's own CPUs suspended inside its directories: stash
             their resumptions for a possible rejoin *)
          Array.iter
            (fun bd ->
              (match bd.Dir.pending with
              | Some { Dir.client = Dir.Home (res, _); _ } -> strand res
              | Some _ | None -> ());
              Queue.iter
                (function Dir.Home (res, _) -> strand res | Dir.Remote _ -> ())
                bd.Dir.waiters;
              Queue.clear bd.Dir.waiters;
              bd.Dir.pending <- None)
            dir
      | _ -> ());
      Tt_mem.Pagemem.set_all_tags page Tag.Invalid;
      Tt_cache.Cache.flush_page (System.cpu_cache t.sys dead) ~vpage)
    (List.sort (fun (a, _) (b, _) -> compare a b) !victim_pages);

  (* --- Phase B: re-home the victim's pages -------------------------- *)
  let new_mem = System.node_mem t.sys new_home in
  List.iter
    (fun vpage ->
      let old_page = Tt_mem.Pagemem.get_page dead_mem ~vpage in
      (* the victim's directory dies with it; reconstruction below uses
         only the survivors' tags — the honest user-level equivalent of
         polling every live node for its copies *)
      let captured =
        (* the new home may hold a stached copy: capture its content and
           tags, then raw-drop the mapping so the page can be re-created
           as a home page *)
        if Tt_mem.Pagemem.is_mapped new_mem ~vpage then begin
          let p = Tt_mem.Pagemem.get_page new_mem ~vpage in
          let tags =
            Array.init Addr.blocks_per_page (fun index ->
                Tt_mem.Pagemem.get_tag new_mem
                  ~vaddr:(Addr.block_addr ~page:vpage ~index))
          in
          let data = Bytes.copy p.Tt_mem.Pagemem.data in
          raw_unmap t ~node:new_home ~vpage;
          Some (tags, data)
        end
        else None
      in
      let new_page =
        Tt_mem.Pagemem.map new_mem ~vpage ~home:new_home ~mode:mode_home
          ~init_tag:Tag.Invalid
      in
      let new_dir = Dir.create_page_dir ~nodes:nnodes in
      for index = 0 to Addr.blocks_per_page - 1 do
        let vaddr = Addr.block_addr ~page:vpage ~index in
        let bd = new_dir.(index) in
        let cap_tag =
          match captured with
          | Some (tags, _) -> tags.(index)
          | None -> Tag.Invalid
        in
        let blit_captured () =
          match captured with
          | Some (_, data) ->
              Bytes.blit data (index * Addr.block_size)
                new_page.Tt_mem.Pagemem.data (index * Addr.block_size)
                Addr.block_size
          | None -> assert false
        in
        (* survivors' copies of this block, excluding the new home *)
        let owner = ref None and ros = ref [] in
        for n = nnodes - 1 downto 0 do
          if live n && n <> new_home then begin
            let mem = System.node_mem t.sys n in
            if Tt_mem.Pagemem.is_mapped mem ~vpage then
              match Tt_mem.Pagemem.get_tag mem ~vaddr with
              | Tag.Read_write -> owner := Some n
              | Tag.Read_only -> ros := n :: !ros
              | Tag.Invalid | Tag.Busy -> ()
          end
        done;
        (match cap_tag, !owner with
        | Tag.Read_write, _ ->
            (* the new home itself held the modified copy: it simply
               becomes the home copy *)
            blit_captured ();
            Tt_mem.Pagemem.set_tag new_mem ~vaddr Tag.Read_write;
            bd.Dir.state <- Dir.Idle
        | _, Some o ->
            (* a survivor owns it exclusively: point the directory there;
               the home copy stays Invalid until a recall or writeback *)
            bd.Dir.state <- Dir.Remote_excl o
        | Tag.Read_only, _ ->
            blit_captured ();
            Tt_mem.Pagemem.set_tag new_mem ~vaddr Tag.Read_only;
            List.iter (Sharers.add bd.Dir.sharers) !ros;
            bd.Dir.state <- Dir.Shared
        | _, None when !ros <> [] ->
            (* copy content from the lowest-ranked read-only holder *)
            let src_mem = System.node_mem t.sys (List.hd !ros) in
            Tt_mem.Pagemem.read_block_into src_mem ~vaddr
              ~dst:new_page.Tt_mem.Pagemem.data
              ~dst_pos:(index * Addr.block_size);
            Tt_mem.Pagemem.set_tag new_mem ~vaddr Tag.Read_only;
            List.iter (Sharers.add bd.Dir.sharers) !ros;
            bd.Dir.state <- Dir.Shared
        | _, None ->
            (* no live copy anywhere: checkpoint or abort *)
            restore_block ~vpage ~vaddr ~into_mem:new_mem
              ~why:"the crashed home held the only copy";
            Tt_mem.Pagemem.set_tag new_mem ~vaddr Tag.Read_write;
            bd.Dir.state <- Dir.Idle)
      done;
      new_page.Tt_mem.Pagemem.user <- Dir.Home_dir new_dir;
      (* re-point the world: the mapping table, and the victim's former
         home page (retyped as an ordinary — dead — stached copy so its
         rejoin treats it like any other invalidated page) *)
      Homes.rehome t.heap ~vpage ~home:new_home;
      old_page.Tt_mem.Pagemem.mode <- mode_remote;
      old_page.Tt_mem.Pagemem.home <- new_home;
      old_page.Tt_mem.Pagemem.user <- Tt_mem.Pagemem.No_info;
      Queue.add vpage (node_state t dead).stache_fifo;
      Stats.Counter.incr t.c_rehomed)
    dead_pages;

  (* --- Phase C: repair surviving directories ------------------------ *)
  let noop_res = Tempest.make_resumption (fun () -> ()) in
  List.iter
    (fun (vpage, home) ->
      if live home && not (Inttbl.mem rehomed vpage) then begin
        let hmem = System.node_mem t.sys home in
        let page = Tt_mem.Pagemem.get_page hmem ~vpage in
        if page.Tt_mem.Pagemem.mode = mode_home then
          match page.Tt_mem.Pagemem.user with
          | Dir.Home_dir dir ->
              Array.iteri
                (fun index bd ->
                  let vaddr = Addr.block_addr ~page:vpage ~index in
                  (* requests the dead node parked behind a transaction *)
                  let keep = Queue.create () in
                  Queue.iter
                    (function
                      | Dir.Remote (r, _) when r = dead ->
                          Stats.Counter.incr t.c_repaired
                      | c -> Queue.add c keep)
                    bd.Dir.waiters;
                  Queue.clear bd.Dir.waiters;
                  Queue.transfer keep bd.Dir.waiters;
                  match bd.Dir.pending with
                  | None -> (
                      Sharers.remove bd.Dir.sharers dead;
                      match bd.Dir.state with
                      | Dir.Remote_excl o when o = dead ->
                          (* the crashed owner held the only copy *)
                          restore_block ~vpage ~vaddr ~into_mem:hmem
                            ~why:"the crashed owner held the only copy";
                          bd.Dir.state <- Dir.Idle;
                          Tt_mem.Pagemem.set_tag hmem ~vaddr Tag.Read_write;
                          Stats.Counter.incr t.c_repaired
                      | Dir.Remote_excl _ | Dir.Idle | Dir.Shared -> ())
                  | Some p ->
                      let requester_was_dead =
                        match p.Dir.client with
                        | Dir.Remote (r, _) -> r = dead
                        | Dir.Home _ -> false
                      in
                      let p =
                        if requester_was_dead then begin
                          (* the requester died mid-transaction: finish the
                             transaction as a home store, which reverts the
                             block to home ownership and fires a no-op
                             (the client field is immutable by design, so
                             the rewrite builds a fresh pending record) *)
                          let np =
                            { Dir.client = Dir.Home (noop_res, Tag.Store);
                              acks_left = p.Dir.acks_left;
                              prev_owner = p.Dir.prev_owner }
                          in
                          bd.Dir.pending <- Some np;
                          Stats.Counter.incr t.c_repaired;
                          np
                        end
                        else p
                      in
                      (match p.Dir.prev_owner with
                      | Some o when o = dead ->
                          (* the recalled owner died with the only
                             up-to-date copy: restore the home copy, then
                             complete as if recall_data had arrived, with
                             no copy left at the former owner *)
                          restore_block ~vpage ~vaddr ~into_mem:hmem
                            ~why:"the recalled owner died holding the \
                                  modified copy";
                          p.Dir.prev_owner <- None;
                          Stats.Counter.incr t.c_repaired;
                          post_chore t ~node:home (fun () ->
                              let ep = System.endpoint t.sys home in
                              finish_recall t ep ~vaddr bd ~joined:None)
                      | Some _ | None ->
                          (* the dead node may owe an invalidation ack:
                             inval targets are exactly the sharers minus
                             the requester *)
                          if Sharers.mem bd.Dir.sharers dead then begin
                            Sharers.remove bd.Dir.sharers dead;
                            if not requester_was_dead then begin
                              p.Dir.acks_left <- p.Dir.acks_left - 1;
                              Stats.Counter.incr t.c_repaired;
                              if p.Dir.acks_left = 0 then begin
                                Sharers.clear bd.Dir.sharers;
                                post_chore t ~node:home (fun () ->
                                    let ep = System.endpoint t.sys home in
                                    if bd.Dir.pending <> None then
                                      finish_pending t ep ~vaddr bd)
                              end
                            end
                          end))
                dir
          | _ -> ()
      end)
    all_pages;

  (* --- Phase D: re-issue survivors' requests to re-homed pages ------ *)
  (* A request (or its response) to the old home died with it.  The
     pending_remote resumption is the suspended CPU's retry continuation:
     firing it re-attempts the access against the current tags, which
     faults cleanly through to the new home. *)
  for n = 0 to nnodes - 1 do
    if live n then begin
      let ns = node_state t n in
      let mem = System.node_mem t.sys n in
      List.iter
        (fun (vaddr, p) ->
          let vpage = Addr.page_of vaddr in
          if Inttbl.mem rehomed vpage then begin
            Inttbl.remove ns.pending_remote vaddr;
            if
              Tt_mem.Pagemem.is_mapped mem ~vpage
              && (Tt_mem.Pagemem.get_page mem ~vpage).Tt_mem.Pagemem.mode
                 = mode_remote
            then Tt_mem.Pagemem.set_tag mem ~vaddr Tag.Invalid;
            match p with
            | Some res -> refire t ~node:n res
            | None -> () (* nonbinding prefetch: simply dropped *)
          end)
        (sorted_pending ns)
    end
  done

(* A crashed node resumed heartbeating: its memory survives but every
   copy was invalidated at the death verdict, and any pre-crash request
   it had outstanding was either never sent, scrubbed in a parked queue,
   or answered with a response that was scrubbed.  Drop the stale
   bookkeeping and re-fire the suspended CPUs — each retry re-faults
   cleanly against the current (possibly re-homed) mapping. *)
let on_node_rejoin t ~node =
  let ns = node_state t node in
  let mem = System.node_mem t.sys node in
  (* pages may have been re-homed (retyped in place) while the node was
     dark: drop the crash-era cached translation before any retry runs *)
  Tt_mem.Pagemem.invalidate_translation mem;
  let entries = sorted_pending ns in
  Inttbl.reset ns.pending_remote;
  List.iter
    (fun (vaddr, p) ->
      (if Tt_mem.Pagemem.is_mapped mem ~vpage:(Addr.page_of vaddr) then
         match Tt_mem.Pagemem.get_tag mem ~vaddr with
         | Tag.Busy -> Tt_mem.Pagemem.set_tag mem ~vaddr Tag.Invalid
         | Tag.Read_write | Tag.Read_only | Tag.Invalid -> ());
      match p with Some res -> refire t ~node res | None -> ())
    entries;
  (* CPUs that were suspended inside the victim's own (now re-homed)
     directories when it died *)
  let mine, others = List.partition (fun (n, _) -> n = node) t.stranded in
  t.stranded <- others;
  List.iter (fun (_, res) -> refire t ~node res) (List.rev mine)

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                  *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let problem = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt
  in
  let nnodes = System.nnodes t.sys in
  Homes.iter
    (fun vpage home ->
      let home_mem = System.node_mem t.sys home in
      let page = Tt_mem.Pagemem.get_page home_mem ~vpage in
      (* pages retyped by a custom protocol play by that protocol's rules *)
      if page.Tt_mem.Pagemem.mode = mode_home then begin
      let dir =
        match page.Tt_mem.Pagemem.user with
        | Dir.Home_dir d -> d
        | _ -> invalid_arg "Stache invariants: home page without directory"
      in
      (* every node's copy of the page, resolved once for all its blocks *)
      let copies =
        Array.init nnodes (fun n ->
            Tt_mem.Pagemem.find_page (System.node_mem t.sys n) ~vpage)
      in
      Array.iteri
        (fun index bd ->
          let vaddr = Addr.block_addr ~page:vpage ~index in
          let home_tag = Tt_mem.Pagemem.page_tag page ~index in
          (match bd.Dir.pending with
          | Some _ -> fail "block 0x%x: pending transaction at quiescence" vaddr
          | None -> ());
          if not (Queue.is_empty bd.Dir.waiters) then
            fail "block 0x%x: queued waiters at quiescence" vaddr;
          (* collect remote copies *)
          let remote_tag n =
            if n = home then None
            else
              match copies.(n) with
              | Some p -> Some (Tt_mem.Pagemem.page_tag p ~index)
              | None -> None
          in
          (* cross-node audit: at most one writable copy of any shared
             block machine-wide, counting the home's own tag *)
          let writers = ref [] in
          if Tag.equal home_tag Tag.Read_write then writers := [ home ];
          for n = 0 to nnodes - 1 do
            match remote_tag n with
            | Some Tag.Read_write -> writers := n :: !writers
            | None | Some _ -> ()
          done;
          (match !writers with
          | [] | [ _ ] -> ()
          | ws ->
              fail "block 0x%x: writable copies at multiple nodes (%s)" vaddr
                (String.concat ", "
                   (List.rev_map string_of_int ws)));
          for n = 0 to nnodes - 1 do
            match remote_tag n with
            | None | Some Tag.Invalid -> ()
            | Some Tag.Busy -> fail "block 0x%x: node %d stuck Busy" vaddr n
            | Some Tag.Read_only ->
                (match bd.Dir.state with
                | Dir.Shared ->
                    if not (Sharers.mem bd.Dir.sharers n) then
                      fail "block 0x%x: node %d has RO copy but is not a \
                            sharer" vaddr n
                | Dir.Idle | Dir.Remote_excl _ ->
                    fail "block 0x%x: node %d has RO copy in state %s" vaddr n
                      (match bd.Dir.state with
                      | Dir.Idle -> "Idle"
                      | Dir.Remote_excl _ -> "Remote_excl"
                      | Dir.Shared -> "Shared"))
            | Some Tag.Read_write -> (
                match bd.Dir.state with
                | Dir.Remote_excl o when o = n -> ()
                | _ -> fail "block 0x%x: node %d has RW copy but is not the \
                             registered owner" vaddr n)
          done;
          match bd.Dir.state with
          | Dir.Idle ->
              if not (Tag.equal home_tag Tag.Read_write) then
                fail "block 0x%x: Idle but home tag %s" vaddr
                  (Tag.to_string home_tag)
          | Dir.Shared ->
              if not (Tag.equal home_tag Tag.Read_only) then
                fail "block 0x%x: Shared but home tag %s" vaddr
                  (Tag.to_string home_tag)
          | Dir.Remote_excl o ->
              if not (Tag.equal home_tag Tag.Invalid) then
                fail "block 0x%x: Remote_excl but home tag %s" vaddr
                  (Tag.to_string home_tag);
              if
                not
                  (match copies.(o) with
                  | Some p ->
                      Tag.equal (Tt_mem.Pagemem.page_tag p ~index)
                        Tag.Read_write
                  | None -> false)
              then
                fail "block 0x%x: owner %d does not hold a RW copy" vaddr o)
        dir
      end)
    t.heap;
  match !problem with None -> Ok () | Some msg -> Error msg
