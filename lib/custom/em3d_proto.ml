module System = Tt_typhoon.System
module Np = Tt_typhoon.Np
module Stache = Tt_stache.Stache
module Sharers = Tt_stache.Sharers
module Thread = Tt_sim.Thread
module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Message = Tt_net.Message
module Stats = Tt_util.Stats
module Vec = Tt_util.Vec
module Inttbl = Tt_util.Inttbl

let mode_custom_home = 3

let mode_custom_remote = 4

(* Handler charge constants (beyond endpoint primitives), in the same spirit
   as Stache's: the update path is deliberately lean. *)
let c_get_extra = 4

let c_data_extra = 6

let c_update_extra = 4

let c_flush_per_block = 2

(* Per-node, per-array-kind protocol state.  One record covers both roles: a
   node is *home* for its own chunk of the array (home_blocks, sharers) and
   *consumer* of remote chunks (expected, buffers, waiter). *)
type kind_state = {
  mutable expected : int;  (* # blocks of this kind stached locally *)
  mutable wait_step : int;  (* next wait episode (starts at 1) *)
  mutable flush_step : int;  (* next flush episode (starts at 1) *)
  buffers : (int * Bytes.t) Vec.t Inttbl.t;  (* step -> updates *)
  mutable waiter : (int * (unit -> unit)) option;
  home_blocks : int Vec.t;  (* block base addresses homed here, fetch order *)
  sharers : Sharers.t Inttbl.t;  (* block vaddr -> consumers *)
}

type t = {
  sys : System.t;
  stache : Stache.t;
  counters : Stats.t;
  kind_ids : (string, int) Hashtbl.t;
  custom_pages : Proto.Pages.t;  (* vpage -> kind id *)
  states : kind_state Inttbl.t array;  (* per node: kind id -> state *)
  pending : Tempest.resumption Inttbl.t array; (* per node fetches *)
  mutable h_get : int;
  mutable h_data : int;
  mutable h_update : int;
  mutable h_flush : int;
}

let stats t = t.counters

let kind_id t name =
  match Hashtbl.find_opt t.kind_ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.kind_ids in
      Hashtbl.replace t.kind_ids name id;
      id

let state t ~node ~kind =
  let table = t.states.(node) in
  match Inttbl.find_opt table kind with
  | Some ks -> ks
  | None ->
      let ks =
        { expected = 0; wait_step = 1; flush_step = 1;
          buffers = Inttbl.create 4; waiter = None; home_blocks = Vec.create ();
          sharers = Inttbl.create 64 }
      in
      Inttbl.replace table kind ks;
      ks

let kind_of_vaddr t vaddr =
  Proto.Pages.id_of t.custom_pages ~what:"Em3d_proto" vaddr

let buffer_of ks step =
  match Inttbl.find_opt ks.buffers step with
  | Some v -> v
  | None ->
      let v = Vec.create () in
      Inttbl.replace ks.buffers step v;
      v

(* Apply all buffered updates of [step]: forced coherent writes into the
   stached copies (tags stay ReadOnly; stale CPU lines are invalidated by
   the block-transfer unit). *)
let apply_step (ep : Tempest.t) ks step =
  let buf = buffer_of ks step in
  Vec.iter
    (fun (vaddr, data) ->
      ep.Tempest.charge c_update_extra;
      ep.Tempest.force_write_block ~vaddr data)
    buf;
  Inttbl.remove ks.buffers step

(* --- message handlers (run on the NP) --- *)

(* home <- consumer: first touch of a block *)
let on_get t (ep : Tempest.t) ~src ~args ~data:_ =
  let vaddr = args.(0) in
  Stats.incr t.counters "fetches";
  let kind = kind_of_vaddr t vaddr in
  let ks = state t ~node:ep.Tempest.node ~kind in
  let sh =
    match Inttbl.find_opt ks.sharers vaddr with
    | Some sh -> sh
    | None ->
        let sh = Sharers.create ~nodes:ep.Tempest.nnodes in
        Inttbl.replace ks.sharers vaddr sh;
        Vec.push ks.home_blocks vaddr;
        sh
  in
  Sharers.add sh src;
  ep.Tempest.charge c_get_extra;
  let data = ep.Tempest.force_read_block ~vaddr in
  ep.Tempest.send ~dst:src ~vnet:Message.Response ~handler:t.h_data
    ~args:[| vaddr |] ~data

(* consumer <- home: fetched data *)
let on_data t (ep : Tempest.t) ~src:_ ~args ~data =
  let vaddr = args.(0) in
  let node = ep.Tempest.node in
  match Inttbl.find_opt t.pending.(node) vaddr with
  | None ->
      invalid_arg
        (Printf.sprintf "Em3d_proto: node %d: data for 0x%x with no fetch"
           node vaddr)
  | Some resumption ->
      Inttbl.remove t.pending.(node) vaddr;
      ep.Tempest.force_write_block ~vaddr data;
      ep.Tempest.set_ro ~vaddr;
      let kind = kind_of_vaddr t vaddr in
      let ks = state t ~node ~kind in
      ks.expected <- ks.expected + 1;
      ep.Tempest.charge c_data_extra;
      ep.Tempest.resume resumption

(* consumer <- home: end-of-step value update (no acknowledgment) *)
let on_update t (ep : Tempest.t) ~src:_ ~args ~data =
  let vaddr = args.(0) and step = args.(1) in
  let node = ep.Tempest.node in
  let kind = kind_of_vaddr t vaddr in
  let ks = state t ~node ~kind in
  let buf = buffer_of ks step in
  Vec.push buf (vaddr, Bytes.copy data);
  Stats.incr t.counters "updates_buffered";
  ep.Tempest.charge 2;
  match ks.waiter with
  | Some (wstep, wake) when wstep = step && Vec.length buf >= ks.expected ->
      ks.waiter <- None;
      apply_step ep ks step;
      wake ()
  | Some _ | None -> ()

(* home NP <- home CPU: walk the outstanding-copy list and push updates *)
let on_flush t (ep : Tempest.t) ~src:_ ~args ~data:_ =
  let kind = args.(0) and step = args.(1) in
  let ks = state t ~node:ep.Tempest.node ~kind in
  Vec.iter
    (fun vaddr ->
      ep.Tempest.charge c_flush_per_block;
      match Inttbl.find_opt ks.sharers vaddr with
      | None -> ()
      | Some sh ->
          if not (Sharers.is_empty sh) then begin
            let data = ep.Tempest.force_read_block ~vaddr in
            List.iter
              (fun consumer ->
                Stats.incr t.counters "updates_sent";
                ep.Tempest.send ~dst:consumer ~vnet:Message.Request
                  ~handler:t.h_update ~args:[| vaddr; step |] ~data)
              (Sharers.to_list sh)
          end)
    ks.home_blocks

(* --- fault handlers --- *)

let remote_block_fault t (ep : Tempest.t) (fault : Tempest.fault) =
  let vaddr = Addr.block_base fault.Tempest.fault_vaddr in
  (match fault.Tempest.fault_access with
  | Tag.Store ->
      invalid_arg
        (Printf.sprintf
           "Em3d_proto: node %d wrote remote custom block 0x%x — the update \
            protocol requires owners-compute"
           ep.Tempest.node vaddr)
  | Tag.Load -> ());
  let node = ep.Tempest.node in
  ep.Tempest.set_busy ~vaddr;
  Inttbl.replace t.pending.(node) vaddr fault.Tempest.fault_resumption;
  ep.Tempest.charge 4;
  let home = Stache.home_of t.stache ~vaddr in
  ep.Tempest.send ~dst:home ~vnet:Message.Request ~handler:t.h_get
    ~args:[| vaddr |] ~data:Bytes.empty

let home_block_fault _t (_ep : Tempest.t) (fault : Tempest.fault) =
  invalid_arg
    (Printf.sprintf
       "Em3d_proto: home fault at 0x%x — custom home pages stay ReadWrite"
       fault.Tempest.fault_vaddr)

let install sys stache =
  let nnodes = System.nnodes sys in
  let t =
    {
      sys; stache;
      counters = Stats.create "em3d_proto";
      kind_ids = Hashtbl.create 4;
      custom_pages = Proto.Pages.create sys stache;
      states = Array.init nnodes (fun _ -> Inttbl.create 4);
      pending = Array.init nnodes (fun _ -> Inttbl.create 8);
      h_get = -1; h_data = -1; h_update = -1; h_flush = -1;
    }
  in
  let tables = System.handlers sys in
  let reg f = Tempest.Handlers.register_message tables (f t) in
  t.h_get <- reg on_get;
  t.h_data <- reg on_data;
  t.h_update <- reg on_update;
  t.h_flush <- reg on_flush;
  Tempest.Handlers.set_block_fault tables ~mode:mode_custom_home
    (home_block_fault t);
  Tempest.Handlers.set_block_fault tables ~mode:mode_custom_remote
    (remote_block_fault t);
  (* Custom pages map as custom stache pages on fault; everything else
     keeps the transparent behaviour (shared plumbing, see Proto.Pages). *)
  Proto.Pages.wrap_page_fault t.custom_pages ~remote_mode:mode_custom_remote;
  t

let alloc t ~th ~node ~kind ?home ~bytes () =
  let kid = kind_id t kind in
  (* page-aligned so custom pages are never shared with stache data *)
  Proto.Pages.alloc t.custom_pages ~th ~node ~id:kid
    ~home_mode:mode_custom_home ?home ~bytes ()

let flush_and_wait t ~th ~node ~kind =
  let kid = kind_id t kind in
  let ks = state t ~node ~kind:kid in
  let ep = System.endpoint t.sys node in
  (* 1. post the flush of our outstanding copies to our own NP *)
  System.with_cpu_context t.sys ~node th (fun () ->
      let step = ks.flush_step in
      ks.flush_step <- ks.flush_step + 1;
      Thread.advance th 5;
      ep.Tempest.send ~dst:node ~vnet:Message.Request ~handler:t.h_flush
        ~args:[| kid; step |] ~data:Bytes.empty);
  (* 2. fuzzy barrier: wait until all updates we are owed this step arrived *)
  let step = ks.wait_step in
  ks.wait_step <- ks.wait_step + 1;
  let arrived = Vec.length (buffer_of ks step) in
  if arrived >= ks.expected then
    System.with_cpu_context t.sys ~node th (fun () ->
        apply_step ep ks step)
  else
    Thread.await_unit th (fun wake ->
        (* the wake runs on the NP after apply_step; sync the CPU clock *)
        ks.waiter <- Some (step, Proto.np_wake t.sys ~node th wake))
