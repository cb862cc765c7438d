module System = Tt_typhoon.System
module Stache = Tt_stache.Stache
module Thread = Tt_sim.Thread
module Addr = Tt_mem.Addr
module Stats = Tt_util.Stats
module Vec = Tt_util.Vec
module Inttbl = Tt_util.Inttbl

(* Per-page policy selection over the protocol zoo.

   The zoo's observer stream feeds per-page counters that accumulate
   until a decision point — every barrier, plus every 8th lock release
   per node (lock-structured phases can run thousands of operations
   between barriers) — yields enough evidence to classify.  Each node
   classifies the pages it homes against two reference sharing patterns
   and, with hysteresis, retypes pages whose traffic says the default
   invalidate protocol is the wrong one:

   - migratory: exclusive copies keep getting recalled and re-fetched for
     writing (write-after-write migration) -> [Migratory] serves read
     misses on exclusive blocks as ownership handoffs.
   - home-writer / remote-readers: home stores keep triggering invalidation
     rounds while remote traffic is read-only -> [Widerep] grants home
     stores in place and eagerly pushes refreshed values to the sharers.

   Only [Stachelike], [Migratory] and [Widerep] are chosen at runtime.
   [Stachelike] and [Migratory] are sequentially consistent under ANY
   access pattern, so misclassifying a page onto them is merely slow,
   never incorrect.  [Widerep] is release-consistent: every release point
   flushes the home's update pushes and awaits their acks, so
   data-race-free programs (all the harness apps) observe nothing weaker
   than SC — but a racy program can read a stale copy in the window
   between an in-place home grant and the harvest push landing.  That
   staleness is bounded (one push latency) and loudly diagnosed by the
   torture oracle's per-iteration value encoding, never silent
   corruption; the read-mostly evidence gating the switch means a page
   has to look write-free from remote before [Widerep] is considered.
   [Delayed] and [Prodcons] stay allocation-time (static) choices:
   [Prodcons] needs the allocation-time promise that consumers re-read
   whole regions each phase, which traffic counters cannot verify, and
   [Delayed] carries batched un-pushed state between releases (much wider
   staleness windows) while being dominated by [Widerep] on every app in
   the shootout grid, so runtime switching has nothing to gain from it.

   Switches happen only at quiesce points ({!Proto.page_quiescent}) and
   charge [c_switch] simulated cycles: the retype flushes the home's
   translation MRU and TLB entry, so the cost models a remap + shootdown. *)

type page = {
  vpage : int;
  (* traffic accumulated since the page's last classification *)
  mutable reads : int;  (* remote read fetches *)
  mutable writes : int;  (* remote write/upgrade fetches *)
  mutable recalls : int;  (* exclusive-copy recalls *)
  mutable inv_home : int;  (* invalidation rounds from home stores *)
  mutable grants : int;  (* update-style home store grants *)
  mutable cand : Proto.pol;  (* last classification *)
  mutable streak : int;  (* consecutive identical classifications *)
}

type t = {
  sys : System.t;
  stache : Stache.t;
  proto : Proto.t;
  counters : Stats.t;
  pages : page Inttbl.t; (* vpage -> window state *)
  homed : int Vec.t array; (* per home node: vpages in first-event order *)
  release_tick : int array; (* per node: unlocks seen, for sampled windows *)
  c_windows : Stats.counter;
  c_switches : Stats.counter;
}

(* Hysteresis: a page must classify the same way for this many consecutive
   windows before it is switched.  Promotion from the default protocol to
   [Widerep] is exempt (one window suffices): the evidence gating it is
   already conservative (zero remote writes or recalls), it is cheap to
   revert, and on read-mostly/producer-consumer apps the first window
   holds the whole signature — waiting costs a phase of
   invalidate-and-refetch. *)
let streak_to_switch = 2

(* Simulated cost of one policy switch (remap + MRU/TLB shootdown). *)
let c_switch = 25

let stats t = t.counters

let switches t = Stats.Counter.get t.c_switches

let page_of t vpage =
  match Inttbl.find_opt t.pages vpage with
  | Some p -> p
  | None ->
      let p =
        { vpage; reads = 0; writes = 0; recalls = 0; inv_home = 0;
          grants = 0; cand = Proto.Stachelike; streak = 0 }
      in
      Inttbl.replace t.pages vpage p;
      let home = Stache.home_of t.stache ~vaddr:(vpage * Addr.page_size) in
      Vec.push t.homed.(home) vpage;
      p

let on_event t ~vaddr ev =
  let p = page_of t (Addr.page_of vaddr) in
  match ev with
  | Proto.Ev_get (`Ro, _) -> p.reads <- p.reads + 1
  | Proto.Ev_get ((`Rw | `Up), _) -> p.writes <- p.writes + 1
  | Proto.Ev_recall -> p.recalls <- p.recalls + 1
  | Proto.Ev_invals (targets, home_store) ->
      if home_store && targets > 0 then p.inv_home <- p.inv_home + 1
  | Proto.Ev_update_grant -> p.grants <- p.grants + 1

(* Classify the traffic accumulated since the last decision.  [None] means
   not enough evidence either way (a quiet or read-only stretch — reads
   alone are consistent with every policy): counters keep accumulating and
   the streak is left alone, so phase-alternating apps (write burst /
   read burst per barrier) don't flip-flop. *)
let classify p =
  if p.recalls >= 1 && p.writes + p.recalls >= 2 then Some Proto.Migratory
  else if p.inv_home + p.grants >= 1 && p.writes = 0 && p.recalls = 0 then
    Some Proto.Widerep
  else if p.reads >= 1 && p.writes = 0 && p.recalls = 0 then
    (* read-mostly with no remote writes: also [Widerep].  If the home
       never stores the choice is a free no-op (no grants, no harvests);
       if it does, the eager value pushes beat invalidate-and-refetch.
       Counting this arm lets producer-consumer pages promote one phase
       earlier (consumers' first fetches are evidence before the home's
       first invalidation round). *)
    Some Proto.Widerep
  else if p.writes + p.recalls >= 2 then
    (* remote writes without the migratory recall signature: the default
       invalidate protocol is the right tool *)
    Some Proto.Stachelike
  else None

(* Synchronization hook for [node]: reclassify every page it homes and
   switch the stable misfits.  Runs after the node's own release flush, so
   pages this node dirtied are already clean; pages with other traffic
   still in flight fail the quiescence probe and simply wait for the next
   window (the streak is kept). *)
let on_sync t ~node th =
  if Vec.length t.homed.(node) > 0 then begin
    Stats.Counter.incr t.c_windows;
    Vec.iter
      (fun vpage ->
        let p = Inttbl.find t.pages vpage in
        match classify p with
        | None -> ()
        | Some cand ->
            if cand = p.cand then p.streak <- p.streak + 1
            else begin
              p.cand <- cand;
              p.streak <- 1
            end;
            p.reads <- 0;
            p.writes <- 0;
            p.recalls <- 0;
            p.inv_home <- 0;
            p.grants <- 0;
            let current = Proto.pol_of_page t.proto ~vpage in
            let need =
              if cand = Proto.Widerep && current = Proto.Stachelike then 1
              else streak_to_switch
            in
            if
              p.streak >= need && cand <> current
              && Proto.page_quiescent t.proto ~vpage
            then begin
              Stats.Counter.incr t.c_switches;
              System.with_cpu_context t.sys ~node th (fun () ->
                  Thread.advance th c_switch;
                  Proto.set_page_pol t.proto ~vpage cand)
            end)
      t.homed.(node)
  end

(* Lock-structured apps can run thousands of operations between barriers,
   so a sampled decision point also rides the release hook: every
   [release_sample]th unlock by a node reclassifies the pages it homes.
   Deterministic (a per-node counter of simulated events). *)
let release_sample = 8

let on_release t ~node th =
  t.release_tick.(node) <- t.release_tick.(node) + 1;
  if t.release_tick.(node) mod release_sample = 0 then on_sync t ~node th

let install sys stache proto =
  let counters = Stats.create "adaptive" in
  let t =
    {
      sys;
      stache;
      proto;
      counters;
      pages = Inttbl.create 1024;
      homed = Array.init (System.nnodes sys) (fun _ -> Vec.create ());
      release_tick = Array.make (System.nnodes sys) 0;
      c_windows = Stats.counter counters "windows";
      c_switches = Stats.counter counters "switches";
    }
  in
  Proto.set_observer proto (Some (on_event t));
  t
