module System = Tt_typhoon.System
module Np = Tt_typhoon.Np
module Stache = Tt_stache.Stache
module Dir = Tt_stache.Dir
module Sharers = Tt_stache.Sharers
module Thread = Tt_sim.Thread
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Pagemem = Tt_mem.Pagemem
module Message = Tt_net.Message
module Stats = Tt_util.Stats
module Vec = Tt_util.Vec
module Inttbl = Tt_util.Inttbl

(* ------------------------------------------------------------------ *)
(* Shared custom-protocol plumbing (extracted from the EM3D protocol)  *)
(* ------------------------------------------------------------------ *)

(* Wake a blocked CPU thread from an NP handler: the wake runs on the NP
   after protocol work, so the CPU clock must first catch up to the NP's. *)
let np_wake sys ~node th wake () =
  Thread.set_clock th (max (Thread.clock th) (Np.clock (System.node_np sys node)));
  wake ()

(* Registry of pages owned by a custom protocol, with the page-fault
   wrapper and the retyping allocator every custom protocol needs.  Each
   registered page carries an uninterpreted [id] (an array kind for EM3D, a
   policy for the zoo). *)
module Pages = struct
  type t = {
    sys : System.t;
    stache : Stache.t;
    table : int Inttbl.t; (* vpage -> id *)
  }

  let create sys stache = { sys; stache; table = Inttbl.create 1024 }

  let registered t ~vpage = Inttbl.mem t.table vpage

  let id_of t ~what vaddr =
    match Inttbl.find_opt t.table (Addr.page_of vaddr) with
    | Some k -> k
    | None ->
        invalid_arg
          (Printf.sprintf "%s: 0x%x is not on a custom page" what vaddr)

  (* Allocate page-aligned shared memory (so custom pages are never shared
     with transparent stache data) and retype the freshly created home
     pages, registering each under [id]. *)
  let alloc t ~th ~node ~id ~home_mode ?home ~bytes () =
    let vaddr =
      Stache.alloc t.stache ~th ~node ?home ~align:Addr.page_size ~bytes ()
    in
    let first = Addr.page_of vaddr
    and last = Addr.page_of (vaddr + bytes - 1) in
    let home_node = Stache.home_of t.stache ~vaddr in
    let ep = System.endpoint t.sys home_node in
    System.with_cpu_context t.sys ~node th (fun () ->
        for vpage = first to last do
          Inttbl.replace t.table vpage id;
          (* retype the freshly created home page *)
          ep.Tempest.set_page_mode ~vpage ~mode:home_mode
        done);
    vaddr

  (* Wrap Stache's page-fault handler: registered pages map as
     [remote_mode] custom pages; everything else keeps the transparent
     behaviour. *)
  let wrap_page_fault t ~remote_mode =
    let tables = System.handlers t.sys in
    let stache_page_fault =
      match Tempest.Handlers.page_fault tables with
      | Some h -> h
      | None -> invalid_arg "Proto.Pages.wrap_page_fault: install Stache first"
    in
    Tempest.Handlers.set_page_fault tables (fun ep ~vaddr access resumption ->
        let vpage = Addr.page_of vaddr in
        if Inttbl.mem t.table vpage then begin
          ep.Tempest.charge 10;
          ep.Tempest.map_page ~vpage
            ~home:(Stache.home_of t.stache ~vaddr)
            ~mode:remote_mode ~init_tag:Tag.Invalid;
          ep.Tempest.resume resumption
        end
        else stache_page_fault ep ~vaddr access resumption)
end

(* ------------------------------------------------------------------ *)
(* The protocol zoo: per-page policies over the Stache home engine      *)
(* ------------------------------------------------------------------ *)

type pol = Stachelike | Migratory | Prodcons | Widerep | Delayed

let pol_names = [ "migratory"; "prodcons"; "widerep"; "delayed" ]

let pol_of_name = function
  | "stache" -> Stachelike
  | "migratory" -> Migratory
  | "prodcons" -> Prodcons
  | "widerep" -> Widerep
  | "delayed" -> Delayed
  | s ->
      invalid_arg
        (Printf.sprintf "Proto: unknown protocol %S (valid: stache, %s)" s
           (String.concat ", " pol_names))

let name_of_pol = function
  | Stachelike -> "stache"
  | Migratory -> "migratory"
  | Prodcons -> "prodcons"
  | Widerep -> "widerep"
  | Delayed -> "delayed"

(* Adaptive-layer observation stream: one event per home-side protocol
   decision point, keyed by block address (home resolution is the
   observer's business). *)
type event =
  | Ev_get of [ `Ro | `Rw | `Up ] * int (* remote fetch: kind, requester *)
  | Ev_recall (* exclusive copy recalled *)
  | Ev_invals of int * bool (* invalidation round: #targets, home-store? *)
  | Ev_update_grant (* home store served update-style *)

(* Handler charge constants (beyond endpoint primitives), matching the
   spirit of Stache's and the EM3D protocol's. *)
let c_update_grant_extra = 4

let c_update_extra = 4

let c_apply_extra = 4

let c_ack_extra = 2

let c_harvest_extra = 3

let c_flush_per_block = 2

let c_flush_post = 5

(* Contiguous prodcons pushes to one consumer batch into a bulk transfer
   from this run length up. *)
let bulk_min_blocks = 2

type t = {
  sys : System.t;
  stache : Stache.t;
  counters : Stats.t;
  page_pol : pol Inttbl.t; (* vpage -> policy (absent = stache) *)
  (* update-family write-collection state, per home node *)
  dirty : unit Inttbl.t array; (* block vaddr set *)
  dirty_order : int Vec.t array; (* first-dirtied order *)
  (* producer-consumer channel state, per home node *)
  readers : Sharers.t Inttbl.t array; (* block vaddr -> past readers *)
  reader_order : int Vec.t array;
  (* release-flush bookkeeping, per node *)
  outstanding : int array; (* un-acked update messages + unconfirmed bulks *)
  flush_done : bool array;
  waiter : (unit -> unit) option array;
  (* blocks shipped by an in-flight bulk push that no home-side serve has
     touched since the flush posted them; a serve (get / invalidation /
     recall) evicts its block, marking the bulk's raw packet data
     potentially stale at the consumer *)
  bulk_clean : unit Inttbl.t array;
  mutable observer : (vaddr:int -> event -> unit) option;
  mutable h_update : int;
  mutable h_ack : int;
  mutable h_push : int;
  mutable h_flush : int;
  mutable h_harvest : int;
  mutable h_bulk_confirm : int;
  mutable h_bulk_adopt : int;
  c_update_grants : Stats.counter;
  c_updates_sent : Stats.counter;
  c_updates_applied : Stats.counter;
  c_updates_stale : Stats.counter;
  c_handoffs : Stats.counter;
  c_pushes_sent : Stats.counter;
  c_pushes_applied : Stats.counter;
  c_pushes_stale : Stats.counter;
  c_bulk_pushes : Stats.counter;
  c_harvests : Stats.counter;
  c_flushes : Stats.counter;
}

let stats t = t.counters

let set_observer t f = t.observer <- f

let pol_of_page t ~vpage =
  match Inttbl.find_opt t.page_pol vpage with
  | Some p -> p
  | None -> Stachelike

let pol_of_vaddr t vaddr = pol_of_page t ~vpage:(Addr.page_of vaddr)

let observe t ~vaddr ev =
  match t.observer with Some f -> f ~vaddr ev | None -> ()

let mark_dirty t ~home vaddr =
  if not (Inttbl.mem t.dirty.(home) vaddr) then begin
    Inttbl.replace t.dirty.(home) vaddr ();
    Vec.push t.dirty_order.(home) vaddr
  end

let record_readers t ~home vaddr targets =
  let sh =
    match Inttbl.find_opt t.readers.(home) vaddr with
    | Some sh -> sh
    | None ->
        let sh = Sharers.create ~nodes:(System.nnodes t.sys) in
        Inttbl.replace t.readers.(home) vaddr sh;
        Vec.push t.reader_order.(home) vaddr;
        sh
  in
  List.iter (Sharers.add sh) targets

let maybe_wake t node =
  if t.outstanding.(node) = 0 && t.flush_done.(node) then
    match t.waiter.(node) with
    | Some wake ->
        t.waiter.(node) <- None;
        wake ()
    | None -> ()

(* Push the home's current copy of [vaddr] to every registered sharer,
   expecting one ack each (release flushes wait on those acks). *)
let push_update_to_sharers t (ep : Tempest.t) ~vaddr (bd : Dir.block_dir) =
  let home = ep.Tempest.node in
  let data = ep.Tempest.force_read_block ~vaddr in
  List.iter
    (fun s ->
      Stats.Counter.incr t.c_updates_sent;
      ep.Tempest.charge c_update_extra;
      t.outstanding.(home) <- t.outstanding.(home) + 1;
      ep.Tempest.send ~dst:s ~vnet:Message.Request ~handler:t.h_update
        ~args:[| vaddr |] ~data)
    (Sharers.to_list bd.Dir.sharers)

(* --- message handlers (run on the NP) --- *)

(* sharer <- home: refreshed copy of a block the sharer already holds
   read-only.  A copy that vanished meanwhile (page replaced, block
   invalidated, or a fetch in flight that will deliver fresher data) is
   simply not updated; the ack flows back regardless so the home's release
   flush can complete. *)
let on_update t (ep : Tempest.t) ~src ~args ~data =
  let vaddr = args.(0) in
  ep.Tempest.charge c_apply_extra;
  (if
     ep.Tempest.page_mapped ~vpage:(Addr.page_of vaddr)
     && Tag.equal (ep.Tempest.read_tag ~vaddr) Tag.Read_only
   then begin
     ep.Tempest.force_write_block ~vaddr data;
     Stats.Counter.incr t.c_updates_applied
   end
   else Stats.Counter.incr t.c_updates_stale);
  ep.Tempest.charge c_ack_extra;
  ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_ack
    ~args:[| vaddr |] ~data:Bytes.empty

(* home <- sharer: update acknowledged *)
let on_ack t (ep : Tempest.t) ~src:_ ~args:_ ~data:_ =
  let home = ep.Tempest.node in
  ep.Tempest.charge c_ack_extra;
  t.outstanding.(home) <- t.outstanding.(home) - 1;
  if t.outstanding.(home) < 0 then
    invalid_arg "Proto: update ack underflow";
  maybe_wake t home

(* consumer <- home: unsolicited clean copy (producer-consumer channel).
   Applied only onto an Invalid block of a mapped page — any other state
   means a fresher copy exists or is in flight.  No ack: the push carries
   committed data and registers the consumer as an ordinary sharer, so SC
   is preserved whether or not it lands. *)
let on_push t (ep : Tempest.t) ~src:_ ~args ~data =
  let vaddr = args.(0) in
  ep.Tempest.charge c_apply_extra;
  if
    ep.Tempest.page_mapped ~vpage:(Addr.page_of vaddr)
    && Tag.equal (ep.Tempest.read_tag ~vaddr) Tag.Invalid
  then begin
    ep.Tempest.force_write_block ~vaddr data;
    ep.Tempest.set_ro ~vaddr;
    Stats.Counter.incr t.c_pushes_applied
  end
  else Stats.Counter.incr t.c_pushes_stale

(* home NP <- home CPU (widerep): re-read the block after the store that
   faulted has committed and push the fresh value to all sharers, then
   demote the home copy so the next store faults (and harvests) again. *)
let on_harvest t (ep : Tempest.t) ~src:_ ~args ~data:_ =
  let vaddr = args.(0) in
  let home = ep.Tempest.node in
  ep.Tempest.charge c_harvest_extra;
  if Inttbl.mem t.dirty.(home) vaddr then begin
    let bd = Dir.block_of ep ~vaddr in
    match bd.Dir.state with
    | Dir.Shared when Tag.equal (ep.Tempest.read_tag ~vaddr) Tag.Read_write ->
        Stats.Counter.incr t.c_harvests;
        if not (Sharers.is_empty bd.Dir.sharers) then
          push_update_to_sharers t ep ~vaddr bd;
        ep.Tempest.set_ro ~vaddr;
        ep.Tempest.downgrade ~vaddr;
        Inttbl.remove t.dirty.(home) vaddr
    | _ ->
        (* granted away or already flushed since the harvest was posted *)
        ()
  end

(* consumer NP -> home NP -> consumer NP: bulk-push confirmation round.

   A bulk transfer delivers raw packet bytes outside the sequenced message
   channel, so — unlike single pushes, which per-pair FIFO orders before
   any later invalidation — its data can race a concurrent serve: an
   invalidation or re-fetch between packets leaves the consumer holding
   bytes of unknown vintage.  The consumer therefore adopts nothing on its
   own.  When the last packet lands it asks the home which blocks are
   still clean (no serve since the flush posted them, still Shared, and
   the consumer still registered); the home's verdict travels back FIFO
   behind any invalidation it sent meanwhile, so the consumer acts on
   directory state at least as new as every conflicting message:

   - [adopt]: packet bytes are the block's committed value; set RO.
   - [poison]: a serve touched the block mid-flight.  A read-only copy may
     sit over overwritten bytes — discard it (the next read re-fetches);
     an exclusive dirty copy cannot be repaired, which only arises when
     the application breaks the producer-consumer contract with a
     concurrent writer — fail loudly rather than corrupt silently.

   The confirmation also acks the bulk (one [outstanding] unit), so a
   release flush is not complete until every consumer's verdict is in —
   flushes never overlap their own bulk deliveries. *)
let on_bulk_confirm t (ep : Tempest.t) ~src ~args ~data:_ =
  let first = args.(0) and count = args.(1) in
  let home = ep.Tempest.node in
  ep.Tempest.charge c_ack_extra;
  (* verdicts pack 2 bits per block (0 skip / 1 adopt / 2 poison) so a
     full-page run fits the packet word limit *)
  let bm = Bytes.make ((count + 3) / 4) '\000' in
  let set_verdict i v =
    let b = Char.code (Bytes.get bm (i / 4)) in
    Bytes.set bm (i / 4) (Char.chr (b lor (v lsl (2 * (i mod 4)))))
  in
  for i = 0 to count - 1 do
    let v = first + (i * Addr.block_size) in
    let clean = Inttbl.mem t.bulk_clean.(home) v in
    Inttbl.remove t.bulk_clean.(home) v;
    if clean then begin
      let bd = Dir.block_of ep ~vaddr:v in
      if bd.Dir.state = Dir.Shared && Sharers.mem bd.Dir.sharers src then
        set_verdict i 1
      (* else: untouched by any serve yet no longer registered (e.g. the
         page was retyped) — skip: don't adopt, nothing to repair *)
    end
    else set_verdict i 2
  done;
  ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_bulk_adopt
    ~args:[| first; count |] ~data:bm;
  t.outstanding.(home) <- t.outstanding.(home) - 1;
  if t.outstanding.(home) < 0 then invalid_arg "Proto: bulk confirm underflow";
  maybe_wake t home

let on_bulk_adopt t (ep : Tempest.t) ~src:_ ~args ~data =
  let first = args.(0) and count = args.(1) in
  ep.Tempest.charge c_apply_extra;
  if ep.Tempest.page_mapped ~vpage:(Addr.page_of first) then
    for i = 0 to count - 1 do
      let v = first + (i * Addr.block_size) in
      match (Char.code (Bytes.get data (i / 4)) lsr (2 * (i mod 4))) land 3 with
      | 1 ->
          if Tag.equal (ep.Tempest.read_tag ~vaddr:v) Tag.Invalid then begin
            ep.Tempest.set_ro ~vaddr:v;
            Stats.Counter.incr t.c_pushes_applied
          end
          else Stats.Counter.incr t.c_pushes_stale
      | 2 ->
          let tag = ep.Tempest.read_tag ~vaddr:v in
          if Tag.equal tag Tag.Read_write then
            failwith
              (Printf.sprintf
                 "Proto: bulk push raced a concurrent writer on 0x%x \
                  (producer-consumer contract violated)"
                 v)
          else if Tag.equal tag Tag.Read_only then begin
            ep.Tempest.invalidate ~vaddr:v;
            Stats.Counter.incr t.c_pushes_stale
          end
      | _ -> ()
    done

(* Producer-consumer flush half: push committed data of previously
   invalidated blocks back to their recorded past readers, re-registering
   them as sharers.  Only blocks the home holds exclusively (state Idle,
   tag ReadWrite) are pushed; others stay recorded for a later flush. *)
let flush_prodcons t (ep : Tempest.t) ~home =
  if Vec.length t.reader_order.(home) > 0 then begin
    (* deterministic sorted walk; contiguous runs batch into bulk pushes *)
    let blocks =
      List.sort_uniq compare
        (Vec.fold_left
           (fun acc v -> if Inttbl.mem t.readers.(home) v then v :: acc else acc)
           [] t.reader_order.(home))
    in
    let pushable =
      List.filter
        (fun vaddr ->
          ep.Tempest.charge c_flush_per_block;
          let bd = Dir.block_of ep ~vaddr in
          bd.Dir.state = Dir.Idle
          && Tag.equal (ep.Tempest.read_tag ~vaddr) Tag.Read_write)
        blocks
    in
    (* flip home state first: Shared, recorded readers become sharers *)
    List.iter
      (fun vaddr ->
        let bd = Dir.block_of ep ~vaddr in
        let sh = Inttbl.find t.readers.(home) vaddr in
        ep.Tempest.set_ro ~vaddr;
        ep.Tempest.downgrade ~vaddr;
        bd.Dir.state <- Dir.Shared;
        List.iter (fun r -> Sharers.add bd.Dir.sharers r) (Sharers.to_list sh))
      pushable;
    (* then deliver: per consumer, contiguous runs go as one bulk transfer
       when the consumer has the page mapped, singles as push messages *)
    let nnodes = System.nnodes t.sys in
    for r = 0 to nnodes - 1 do
      let mine =
        List.filter
          (fun v -> Sharers.mem (Inttbl.find t.readers.(home) v) r)
          pushable
      in
      let send_single vaddr =
        Stats.Counter.incr t.c_pushes_sent;
        ep.Tempest.charge c_update_extra;
        let data = ep.Tempest.force_read_block ~vaddr in
        ep.Tempest.send ~dst:r ~vnet:Message.Request ~handler:t.h_push
          ~args:[| vaddr |] ~data
      in
      let flush_run first count =
        if count = 0 then ()
        else if
          count >= bulk_min_blocks
          && Tt_mem.Pagemem.is_mapped
               (System.node_mem t.sys r)
               ~vpage:(Addr.page_of first)
        then begin
          Stats.Counter.incr t.c_bulk_pushes;
          t.outstanding.(home) <- t.outstanding.(home) + 1;
          for i = 0 to count - 1 do
            Inttbl.replace t.bulk_clean.(home)
              (first + (i * Addr.block_size))
              ()
          done;
          let dep = System.endpoint t.sys r in
          let len = count * Addr.block_size in
          ep.Tempest.bulk_transfer ~dst:r ~src_va:first ~dst_va:first ~len
            ~on_complete:(fun () ->
              (* runs at the consumer: nothing is adopted until the home
                 confirms which blocks stayed clean in flight (see
                 [on_bulk_confirm]) *)
              dep.Tempest.charge c_apply_extra;
              dep.Tempest.send ~dst:home ~vnet:Message.Request
                ~handler:t.h_bulk_confirm ~args:[| first; count |]
                ~data:Bytes.empty)
        end
        else
          for i = 0 to count - 1 do
            send_single (first + (i * Addr.block_size))
          done
      in
      let rec runs = function
        | [] -> ()
        | v :: _ as l ->
            let rec span count = function
              | x :: rest
                when x = v + (count * Addr.block_size)
                     && Addr.page_of x = Addr.page_of v ->
                  span (count + 1) rest
              | rest -> count, rest
            in
            let count, rest = span 0 l in
            flush_run v count;
            runs rest
      in
      runs mine
    done;
    List.iter (fun v -> Inttbl.remove t.readers.(home) v) pushable;
    (* rebuild the order vector with whatever stayed recorded *)
    Vec.clear t.reader_order.(home);
    List.iter
      (fun v ->
        if Inttbl.mem t.readers.(home) v then Vec.push t.reader_order.(home) v)
      blocks
  end

(* home NP <- home CPU: release-point flush.  Walk the dirty set (delayed /
   widerep leftovers): blocks still Shared push refreshed copies to their
   sharers and the home demotes itself so later stores fault again; blocks
   granted away or with no sharers are simply forgotten.  Then the
   producer-consumer push pass runs.  The flush is complete when posted;
   the CPU additionally waits for all update acks ([outstanding] = 0). *)
let on_flush t (ep : Tempest.t) ~src:_ ~args:_ ~data:_ =
  let home = ep.Tempest.node in
  Stats.Counter.incr t.c_flushes;
  Vec.iter
    (fun vaddr ->
      ep.Tempest.charge c_flush_per_block;
      if Inttbl.mem t.dirty.(home) vaddr then begin
        Inttbl.remove t.dirty.(home) vaddr;
        let bd = Dir.block_of ep ~vaddr in
        match bd.Dir.state with
        | Dir.Shared ->
            if not (Sharers.is_empty bd.Dir.sharers) then
              push_update_to_sharers t ep ~vaddr bd;
            if Tag.equal (ep.Tempest.read_tag ~vaddr) Tag.Read_write then begin
              ep.Tempest.set_ro ~vaddr;
              ep.Tempest.downgrade ~vaddr
            end
        | Dir.Idle | Dir.Remote_excl _ ->
            (* no sharers left, or the block was granted away (fresh data
               went with the grant) *)
            ()
      end)
    t.dirty_order.(home);
  Vec.clear t.dirty_order.(home);
  flush_prodcons t ep ~home;
  t.flush_done.(home) <- true;
  maybe_wake t home

(* --- the policy hooks installed into Stache --- *)

let hooks t =
  {
    Stache.ph_grant_kind =
      (fun ~vaddr ~requester:_ ~state k ->
        match pol_of_vaddr t vaddr, k, state with
        | Migratory, `Ro, Dir.Remote_excl _ ->
            (* exclusive ownership follows the accessor *)
            Stats.Counter.incr t.c_handoffs;
            `Rw
        | (Widerep | Delayed), `Up, Dir.Shared
          when
            (let home = Stache.home_of t.stache ~vaddr in
             Inttbl.mem t.dirty.(home) vaddr || t.outstanding.(home) > 0) ->
            (* the upgrader's copy may be stale: either against un-flushed
               home writes (block still dirty) or against update pushes
               still in flight (flush posted, acks outstanding — the
               upgrader may not have received its refresh yet).  Serve as a
               full write miss so fresh data is sent. *)
            `Rw
        | _ -> k);
    ph_home_store =
      (fun ep ~vaddr bd res ->
        match pol_of_vaddr t vaddr with
        | (Widerep | Delayed) when
            (match bd.Dir.state with
             | Dir.Remote_excl _ -> true
             | Dir.Idle | Dir.Shared -> false) ->
            (* the authoritative copy is a remote exclusive cache, not home
               memory: granting in place would write over stale data.  Fall
               back to the normal recall path. *)
            false
        | (Widerep | Delayed) as p ->
            let home = ep.Tempest.node in
            Stats.Counter.incr t.c_update_grants;
            observe t ~vaddr Ev_update_grant;
            ep.Tempest.charge c_update_grant_extra;
            ep.Tempest.set_rw ~vaddr;
            mark_dirty t ~home vaddr;
            if p = Widerep then begin
              (* eager update: harvest the block once the store commits *)
              ep.Tempest.charge 1;
              ep.Tempest.send ~dst:home ~vnet:Message.Request
                ~handler:t.h_harvest ~args:[| vaddr |]
                ~data:Bytes.empty
            end;
            ep.Tempest.resume res;
            true
        | Stachelike | Migratory | Prodcons -> false);
    ph_note_get =
      (fun ~vaddr ~requester ~kind ->
        Inttbl.remove t.bulk_clean.(Stache.home_of t.stache ~vaddr) vaddr;
        observe t ~vaddr (Ev_get (kind, requester)));
    ph_note_invals =
      (fun ~vaddr ~targets ~home_store ->
        Inttbl.remove t.bulk_clean.(Stache.home_of t.stache ~vaddr) vaddr;
        (if home_store && targets <> [] && pol_of_vaddr t vaddr = Prodcons then
           record_readers t ~home:(Stache.home_of t.stache ~vaddr) vaddr
             targets);
        observe t ~vaddr (Ev_invals (List.length targets, home_store)));
    ph_note_recall =
      (fun ~vaddr ->
        Inttbl.remove t.bulk_clean.(Stache.home_of t.stache ~vaddr) vaddr;
        observe t ~vaddr Ev_recall);
  }

let install sys stache =
  let nnodes = System.nnodes sys in
  let counters = Stats.create "proto" in
  let t =
    {
      sys;
      stache;
      counters;
      page_pol = Inttbl.create 1024;
      dirty = Array.init nnodes (fun _ -> Inttbl.create 64);
      dirty_order = Array.init nnodes (fun _ -> Vec.create ());
      readers = Array.init nnodes (fun _ -> Inttbl.create 64);
      reader_order = Array.init nnodes (fun _ -> Vec.create ());
      outstanding = Array.make nnodes 0;
      flush_done = Array.make nnodes true;
      waiter = Array.make nnodes None;
      bulk_clean = Array.init nnodes (fun _ -> Inttbl.create 64);
      observer = None;
      h_update = -1;
      h_ack = -1;
      h_push = -1;
      h_flush = -1;
      h_harvest = -1;
      h_bulk_confirm = -1;
      h_bulk_adopt = -1;
      c_update_grants = Stats.counter counters "update_grants";
      c_updates_sent = Stats.counter counters "updates_sent";
      c_updates_applied = Stats.counter counters "updates_applied";
      c_updates_stale = Stats.counter counters "updates_stale";
      c_handoffs = Stats.counter counters "migratory_handoffs";
      c_pushes_sent = Stats.counter counters "pushes_sent";
      c_pushes_applied = Stats.counter counters "pushes_applied";
      c_pushes_stale = Stats.counter counters "pushes_stale";
      c_bulk_pushes = Stats.counter counters "bulk_pushes";
      c_harvests = Stats.counter counters "harvests";
      c_flushes = Stats.counter counters "flushes";
    }
  in
  let tables = System.handlers sys in
  let reg f = Tempest.Handlers.register_message tables (f t) in
  t.h_update <- reg on_update;
  t.h_ack <- reg on_ack;
  t.h_push <- reg on_push;
  t.h_flush <- reg on_flush;
  t.h_harvest <- reg on_harvest;
  t.h_bulk_confirm <- reg on_bulk_confirm;
  t.h_bulk_adopt <- reg on_bulk_adopt;
  Stache.set_policy stache (Some (hooks t));
  t

(* --- page policy management --- *)

(* Retype [vpage] in place at its home and record its policy.  The page
   must be quiescent (see {!page_quiescent}); freshly allocated pages
   always are.  Charged by the caller. *)
let set_page_pol t ~vpage pol =
  let home = Stache.home_of t.stache ~vaddr:(vpage * Addr.page_size) in
  let mem = System.node_mem t.sys home in
  let page = Pagemem.get_page mem ~vpage in
  page.Pagemem.mode <-
    (if pol = Stachelike then Stache.mode_home else Stache.mode_proto_home);
  (* no access may ride a cached translation past the retype *)
  Pagemem.invalidate_translation mem;
  Tt_mem.Tlb.flush_entry (System.cpu_tlb t.sys home) vpage;
  if pol = Stachelike then Inttbl.remove t.page_pol vpage
  else Inttbl.replace t.page_pol vpage pol

let iter_pages t f = Inttbl.iter (fun vpage pol -> f ~vpage pol) t.page_pol

(* Adopt every page of a fresh allocation under [pol] (zoo machines route
   all application allocations here). *)
let adopt t ~th ~node ~vaddr ~bytes pol =
  if pol <> Stachelike then begin
    let first = Addr.page_of vaddr
    and last = Addr.page_of (vaddr + bytes - 1) in
    System.with_cpu_context t.sys ~node th (fun () ->
        for vpage = first to last do
          if not (Inttbl.mem t.page_pol vpage) then begin
            Thread.advance th 2;
            set_page_pol t ~vpage pol
          end
        done)
  end

(* Safe-switch probe: no block of the page is mid-transaction, has queued
   waiters, or carries un-flushed dirty state. *)
let page_quiescent t ~vpage =
  match
    Pagemem.find_page
      (System.node_mem t.sys
         (Stache.home_of t.stache ~vaddr:(vpage * Addr.page_size)))
      ~vpage
  with
  | None -> false
  | Some page -> (
      match page.Pagemem.user with
      | Dir.Home_dir dir ->
          let home = Stache.home_of t.stache ~vaddr:(vpage * Addr.page_size) in
          let base = vpage * Addr.page_size in
          Array.for_all
            (fun bd -> bd.Dir.pending = None && Queue.is_empty bd.Dir.waiters)
            dir
          && (let clean = ref true in
              for i = 0 to Addr.blocks_per_page - 1 do
                let v = base + (i * Addr.block_size) in
                if
                  Inttbl.mem t.dirty.(home) v
                  || Inttbl.mem t.readers.(home) v
                then clean := false
              done;
              !clean)
      | _ -> false)

(* --- release-point flush (CPU side) --- *)

(* Flush this node's un-flushed protocol state and wait until every update
   it ever sent has been acknowledged.  Free when there is nothing to do —
   machines without update-family pages never pay for the hook. *)
let flush_release t ~th ~node =
  if
    Inttbl.length t.dirty.(node) > 0
    || Vec.length t.reader_order.(node) > 0
    || t.outstanding.(node) > 0
  then begin
    let ep = System.endpoint t.sys node in
    System.with_cpu_context t.sys ~node th (fun () ->
        Thread.advance th c_flush_post;
        t.flush_done.(node) <- false;
        ep.Tempest.send ~dst:node ~vnet:Message.Request ~handler:t.h_flush
          ~args:[| 0 |] ~data:Bytes.empty);
    Thread.await_unit th (fun wake ->
        t.waiter.(node) <- Some (np_wake t.sys ~node th wake))
  end
