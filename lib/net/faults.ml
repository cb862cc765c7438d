module Stats = Tt_util.Stats
module Prng = Tt_util.Prng

type rates = { drop : float; dup : float; reorder : float }

let no_faults = { drop = 0.0; dup = 0.0; reorder = 0.0 }

type burst = {
  p_enter : float;
  p_exit : float;
  good_scale : float;
  bad_scale : float;
}

let bursty ?(p_enter = 0.05) ?(p_exit = 0.25) ?(good_scale = 0.0)
    ?(bad_scale = 10.0) () =
  let chk what p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Faults.bursty: %s out of [0,1]" what)
  in
  chk "p_enter" p_enter;
  chk "p_exit" p_exit;
  if good_scale < 0.0 || bad_scale < 0.0 then
    invalid_arg "Faults.bursty: negative rate scale";
  { p_enter; p_exit; good_scale; bad_scale }

exception Unrecoverable of string

type crash = { victim : int; at : int; jitter : int; rejoin : int option }

let crash ?(jitter = 0) ?rejoin ~victim ~at () =
  if at < 0 then invalid_arg "Faults.crash: negative crash time";
  if jitter < 0 then invalid_arg "Faults.crash: negative jitter";
  (match rejoin with
  | Some r when r <= at -> invalid_arg "Faults.crash: rejoin before crash"
  | _ -> ());
  { victim; at; jitter; rejoin }

type config = {
  seed : int;
  request : rates;
  response : rates;
  max_jitter : int;
  burst : burst option;
  crashes : crash list;
}

let uniform ?(seed = 0x7700) ?(drop = 0.0) ?(dup = 0.0) ?(reorder = 0.0)
    ?(max_jitter = 40) ?burst ?(crashes = []) () =
  let r = { drop; dup; reorder } in
  { seed; request = r; response = r; max_jitter; burst; crashes }

let per_vnet ?(seed = 0x7700) ?(max_jitter = 40) ?burst ?(crashes = [])
    ~request ~response () =
  { seed; request; response; max_jitter; burst; crashes }

type decision = { dropped : bool; reorder_jitter : int; dup_jitter : int }

let deliver = { dropped = false; reorder_jitter = 0; dup_jitter = 0 }

type t = {
  fabric : Fabric.t;
  prng : Prng.t;
  config : config;
  counters : Stats.t;
  c_dropped : Stats.counter;
  c_duplicated : Stats.counter;
  c_reordered : Stats.counter;
  c_burst_bad : Stats.counter;
  c_crash_dropped : Stats.counter;
  (* Resolved crash-stop windows, one per node: down during
     [down_from.(n), up_from.(n)) (max_int = never).  Crash-time jitter is
     drawn from a private per-victim stream at create, never from the main
     stream, so a config with [crashes = []] consumes the main stream
     draw-for-draw identically to one predating crash support. *)
  down_from : int array;
  up_from : int array;
  (* Gilbert–Elliott link state, lazily allocated per (src,dst) link.  Each
     link owns a private PRNG stream for its state transitions so the main
     stream's pinned draw order (see .mli) is untouched by burst mode. *)
  nnodes : int;
  link_rngs : Prng.t option array;
  link_bad : bool array;
  mutable tap : (site:int -> decision -> decision) option;
  mutable site : int;
}

let create config fabric =
  let counters = Stats.create "faults" in
  let nnodes = Fabric.nodes fabric in
  let nlinks = match config.burst with None -> 0 | Some _ -> nnodes * nnodes in
  let down_from = Array.make nnodes max_int in
  let up_from = Array.make nnodes max_int in
  List.iter
    (fun c ->
      if c.victim < 0 || c.victim >= nnodes then
        invalid_arg
          (Printf.sprintf "Faults.create: crash victim %d out of [0,%d)"
             c.victim nnodes);
      let j =
        if c.jitter <= 0 then 0
        else
          let g =
            Prng.create ~seed:(config.seed lxor ((c.victim + 1) * 0x85EBCA6B))
          in
          Prng.int g (c.jitter + 1)
      in
      let down = c.at + j in
      down_from.(c.victim) <- down;
      up_from.(c.victim) <-
        (match c.rejoin with None -> max_int | Some r -> max (down + 1) r))
    config.crashes;
  {
    fabric;
    prng = Prng.create ~seed:config.seed;
    config;
    counters;
    c_dropped = Stats.counter counters "faults.dropped";
    c_duplicated = Stats.counter counters "faults.duplicated";
    c_reordered = Stats.counter counters "faults.reordered";
    c_burst_bad = Stats.counter counters "faults.burst_bad_sends";
    c_crash_dropped = Stats.counter counters "faults.crash_dropped";
    down_from;
    up_from;
    nnodes;
    link_rngs = Array.make nlinks None;
    link_bad = Array.make nlinks false;
    tap = None;
    site = 0;
  }

let stats t = t.counters

let dropped t = Stats.Counter.get t.c_dropped

let is_down t ~node ~at =
  node >= 0 && node < t.nnodes
  && at >= t.down_from.(node)
  && at < t.up_from.(node)

let crash_window t ~node =
  if node < 0 || node >= t.nnodes || t.down_from.(node) = max_int then None
  else
    Some
      ( t.down_from.(node),
        if t.up_from.(node) = max_int then None else Some t.up_from.(node) )

let crash_drop t = Stats.Counter.incr t.c_crash_dropped

let set_tap t tap = t.tap <- tap

let sites t = t.site

(* The PRNG draw sequence per send is fixed — see the .mli contract:
   (1) drop chance; a dropped message draws nothing further; surviving
   messages draw (2) reorder chance, (3) reorder jitter iff (2) hit,
   (4) dup chance, (5) dup jitter iff (4) hit — so a given seed yields a
   bit-reproducible fault pattern for a given traffic sequence, and since
   the simulation itself is deterministic, for a given (seed, config) pair
   entirely.  The tap (if any) observes the drawn decision and may replace
   it; the PRNG stream is consumed identically either way, so masking or
   replaying decisions never shifts later draws. *)
(* One Gilbert–Elliott state transition per send, drawn from the link's
   private stream: in the bad state the vnet's configured rates are scaled
   by [bad_scale] (clamped to probability 1), in the good state by
   [good_scale].  Scales of 1.0 make burst mode draw-for-draw identical to
   no burst on the main stream, which is how the draw-order preservation is
   pinned by test. *)
let effective_rates t (msg : Message.t) r =
  match t.config.burst with
  | None -> r
  | Some b ->
      let link = (msg.Message.src * t.nnodes) + msg.Message.dst in
      let rng =
        match t.link_rngs.(link) with
        | Some g -> g
        | None ->
            let g =
              Prng.create ~seed:(t.config.seed lxor ((link + 1) * 0x9E3779B9))
            in
            t.link_rngs.(link) <- Some g;
            g
      in
      let bad =
        if t.link_bad.(link) then not (Prng.chance rng b.p_exit)
        else Prng.chance rng b.p_enter
      in
      t.link_bad.(link) <- bad;
      if bad then Stats.Counter.incr t.c_burst_bad;
      let scale = if bad then b.bad_scale else b.good_scale in
      if scale = 1.0 then r
      else
        {
          drop = Float.min 1.0 (r.drop *. scale);
          dup = Float.min 1.0 (r.dup *. scale);
          reorder = Float.min 1.0 (r.reorder *. scale);
        }

let send_faulty t ~at msg =
  let r =
    match msg.Message.vnet with
    | Message.Request -> t.config.request
    | Message.Response -> t.config.response
  in
  let r = effective_rates t msg r in
  let natural =
    if r.drop > 0.0 && Prng.chance t.prng r.drop then
      { dropped = true; reorder_jitter = 0; dup_jitter = 0 }
    else begin
      let reorder_jitter =
        if r.reorder > 0.0 && Prng.chance t.prng r.reorder then
          1 + Prng.int t.prng t.config.max_jitter
        else 0
      in
      let dup_jitter =
        if r.dup > 0.0 && Prng.chance t.prng r.dup then
          1 + Prng.int t.prng t.config.max_jitter
        else 0
      in
      { dropped = false; reorder_jitter; dup_jitter }
    end
  in
  let d =
    match t.tap with
    | None -> natural
    | Some f -> f ~site:t.site natural
  in
  t.site <- t.site + 1;
  if d.dropped then Stats.Counter.incr t.c_dropped
  else begin
    if d.reorder_jitter > 0 then Stats.Counter.incr t.c_reordered;
    Fabric.send t.fabric ~at:(at + d.reorder_jitter) msg;
    if d.dup_jitter > 0 then begin
      Stats.Counter.incr t.c_duplicated;
      Fabric.send t.fabric ~at:(at + d.dup_jitter) msg
    end
  end

let send t ~at msg =
  (* A crashed source's network interface is dead silicon: the send
     vanishes before the fault model even sees it — no PRNG draw, no tap
     site, so crash schedules never shift the pinned main-stream order. *)
  if is_down t ~node:msg.Message.src ~at then crash_drop t
  else send_faulty t ~at msg
