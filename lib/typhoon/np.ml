module Ctrl = Tt_sim.Ctrl
module Ring = Ctrl.Ring
module Message = Tt_net.Message

type fault =
  | Block_fault of Tempest.fault
  | Page_fault of {
      vaddr : int;
      access : Tt_mem.Tag.access;
      resumption : Tempest.resumption;
    }

let no_fault =
  Page_fault
    { vaddr = 0; access = Tt_mem.Tag.Load;
      resumption = Tempest.make_resumption ignore }

type t = {
  ctrl : Ctrl.t;
  np_rtlb : Tt_mem.Tlb.t;
  np_dcache : Tt_cache.Cache.t;
  capacity : int; (* per-ring item cap *)
  np_name : string;
  (* ready times are monotone within a ring, so checking the head suffices *)
  responses : Message.t Ring.t;
  requests : Message.t Ring.t;
  faults : fault Ring.t;
  deferred : (unit -> unit) Ring.t;
  mutable on_message : Message.t -> unit;
  mutable on_fault : fault -> unit;
  mutable on_deferred : (unit -> unit) -> unit;
}

let clock t = Ctrl.clock t.ctrl

let charge t n = Ctrl.charge t.ctrl n

let rtlb t = t.np_rtlb

let dcache t = t.np_dcache

let handled t = Ctrl.handled t.ctrl

let busy_cycles t = Ctrl.busy_cycles t.ctrl

let depth t =
  Ring.length t.responses + Ring.length t.requests + Ring.length t.faults
  + Ring.length t.deferred

let take r exec clock =
  exec (Ring.pop r);
  clock

(* Priority: responses, then faults, then requests, then deferred chores
   (§5.1: the response network must never starve). *)
let serve t clock =
  if Ring.ready t.responses clock then take t.responses t.on_message clock
  else if Ring.ready t.faults clock then take t.faults t.on_fault clock
  else if Ring.ready t.requests clock then take t.requests t.on_message clock
  else if Ring.ready t.deferred clock then take t.deferred t.on_deferred clock
  else
    min
      (min (Ring.next t.responses) (Ring.next t.faults))
      (min (Ring.next t.requests) (Ring.next t.deferred))

let create engine ~rtlb ~dcache ?(capacity = 1 lsl 16) ?(name = "np") () =
  if capacity <= 0 then invalid_arg "Np.create: bad capacity";
  let not_installed _ = invalid_arg "Np: executors not installed" in
  let t =
    { ctrl = Ctrl.create engine; np_rtlb = rtlb; np_dcache = dcache;
      capacity; np_name = name;
      responses = Ring.create Message.dummy;
      requests = Ring.create Message.dummy;
      faults = Ring.create no_fault;
      deferred = Ring.create ignore;
      on_message = not_installed; on_fault = not_installed;
      on_deferred = not_installed }
  in
  Ctrl.install t.ctrl (fun () -> Ctrl.run t.ctrl t ~serve ~depth);
  t

let install t ~message ~fault ~deferred =
  t.on_message <- message;
  t.on_fault <- fault;
  t.on_deferred <- deferred

(* Finite queueing: each ring rejects pushes beyond [capacity].  With the
   Flow credit layer above, an ample capacity is a pure safety net — credits
   bound arrivals long before the ring fills — so hitting this is a bug or a
   deliberately tiny-capacity overload experiment, and either way it must
   abort loudly, never grow silently. *)
let push t r what ~at x =
  if Ring.length r >= t.capacity then
    raise
      (Tt_net.Overload.Overload
         (Printf.sprintf
            "%s: %s ring full (%d items, capacity %d) at t=%d (queues: \
             responses=%d requests=%d faults=%d deferred=%d)"
            t.np_name what (Ring.length r) t.capacity at
            (Ring.length t.responses) (Ring.length t.requests)
            (Ring.length t.faults) (Ring.length t.deferred)));
  Ring.push r ~at x;
  Ctrl.kick t.ctrl

let post_message t ~at (m : Message.t) =
  match m.vnet with
  | Message.Response -> push t t.responses "response" ~at m
  | Message.Request -> push t t.requests "request" ~at m

let post_fault t ~at f = push t t.faults "fault" ~at f

let post_deferred t ~at f = push t t.deferred "deferred" ~at f
