(* Whole-suite invariant: pool-debug mode poisons released pool buffers
   and rejects double-release (satellite of the zero-allocation PR). *)
let () = Tt_util.Debug.set_pool_debug true

(* Tests for active messages and the interconnect. *)

module Engine = Tt_sim.Engine
module Message = Tt_net.Message
module Fabric = Tt_net.Fabric
module Faults = Tt_net.Faults
module Reliable = Tt_net.Reliable
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let msg ?(src = 0) ?(dst = 1) ?(vnet = Message.Request) ?(handler = 0)
    ?(args = [||]) ?(data = Bytes.empty) () =
  Message.make ~src ~dst ~vnet ~handler ~args ~data ()

(* ---------------- Message ---------------- *)

let test_message_word_accounting () =
  check_int "handler only" 1 (Message.words (msg ()));
  check_int "args count" 4 (Message.words (msg ~args:[| 1; 2; 3 |] ()));
  check_int "data rounds up" (1 + 2)
    (Message.words (msg ~data:(Bytes.create 5) ()));
  check_int "32-byte block" 9 (Message.words (msg ~data:(Bytes.create 32) ()))

let test_message_packet_limit () =
  (* 1 + 3 + 16 = 20 words: exactly the Typhoon maximum *)
  ignore (msg ~args:[| 1; 2; 3 |] ~data:(Bytes.create 64) ());
  try
    ignore (msg ~args:[| 1; 2; 3; 4 |] ~data:(Bytes.create 64) ());
    Alcotest.fail "over-limit packet must raise"
  with Invalid_argument _ -> ()

(* ---------------- Fabric ---------------- *)

let mk_fabric ?(nodes = 4) ?(latency = 11) () =
  let e = Engine.create () in
  (e, Fabric.create e ~nodes ~latency ())

let test_fabric_delivery_time () =
  let e, f = mk_fabric () in
  let arrival = ref (-1) in
  Fabric.set_receiver f ~node:1 (fun _ -> arrival := Engine.now e);
  Fabric.send f ~at:100 (msg ());
  Engine.run e;
  check_int "arrives at send + latency" 111 !arrival

let test_fabric_local_short_circuit () =
  let e, f = mk_fabric () in
  let arrival = ref (-1) in
  Fabric.set_receiver f ~node:0 (fun _ -> arrival := Engine.now e);
  Fabric.send f ~at:50 (msg ~dst:0 ());
  Engine.run e;
  check_int "local latency 1" 51 !arrival;
  check_int "local counted" 1 (Stats.get (Fabric.stats f) "msgs.local")

let test_fabric_pairwise_fifo () =
  let e, f = mk_fabric () in
  let log = ref [] in
  Fabric.set_receiver f ~node:1 (fun m -> log := m.Message.handler :: !log);
  (* same source, increasing send times: must arrive in order *)
  Fabric.send f ~at:10 (msg ~handler:1 ());
  Fabric.send f ~at:11 (msg ~handler:2 ());
  Fabric.send f ~at:11 (msg ~handler:3 ());
  Engine.run e;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] (List.rev !log)

let test_fabric_stats () =
  let e, f = mk_fabric () in
  Fabric.set_receiver f ~node:1 (fun _ -> ());
  Fabric.send f ~at:0 (msg ~vnet:Message.Request ~args:[| 1 |] ());
  Fabric.send f ~at:0 (msg ~vnet:Message.Response ~data:(Bytes.create 32) ());
  Engine.run e;
  let s = Fabric.stats f in
  check_int "request msgs" 1 (Stats.get s "msgs.request");
  check_int "response msgs" 1 (Stats.get s "msgs.response");
  check_int "request words" 2 (Stats.get s "words.request");
  check_int "response words" 9 (Stats.get s "words.response")

let test_fabric_no_receiver () =
  let e, f = mk_fabric () in
  Fabric.send f ~at:0 (msg ~dst:2 ());
  try
    Engine.run e;
    Alcotest.fail "missing receiver must raise"
  with Invalid_argument _ -> ()

let test_fabric_bad_destination () =
  let _, f = mk_fabric ~nodes:2 () in
  try
    Fabric.send f ~at:0 (msg ~dst:7 ());
    Alcotest.fail "bad destination must raise"
  with Invalid_argument _ -> ()

let test_fabric_no_receiver_message () =
  (* the error fires inside the delivery event, long after the send call
     site: it must name the message so the offender is diagnosable *)
  let e, f = mk_fabric () in
  Fabric.send f ~at:0 (msg ~src:0 ~dst:2 ~handler:5 ());
  match Engine.run e with
  | () -> Alcotest.fail "missing receiver must raise"
  | exception Invalid_argument m ->
      check_bool "names src" true (contains m "src=0");
      check_bool "names dst" true (contains m "dst=2");
      check_bool "names handler" true (contains m "handler=5")

let test_fabric_bad_source () =
  let _, f = mk_fabric ~nodes:2 () in
  (match Fabric.send f ~at:0 (msg ~src:7 ~dst:1 ()) with
  | () -> Alcotest.fail "bad source must raise"
  | exception Invalid_argument m ->
      check_bool "says bad source" true (contains m "bad source"));
  (match Fabric.send f ~at:0 (msg ~src:(-1) ~dst:1 ()) with
  | () -> Alcotest.fail "negative source must raise"
  | exception Invalid_argument m ->
      check_bool "says bad source" true (contains m "bad source"));
  (* in bandwidth mode a bad src used to index port_free out of bounds;
     it must now fail the same validation before touching the array *)
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 ~words_per_cycle:1 () in
  match Fabric.send f ~at:0 (msg ~src:7 ~dst:1 ()) with
  | () -> Alcotest.fail "bad source must raise in bandwidth mode"
  | exception Invalid_argument m ->
      check_bool "says bad source" true (contains m "bad source")

(* Property test: the bandwidth/contention accounting agrees with an
   independent shadow model — port_free entries are monotone, deliveries
   never precede depart + latency, and port_wait_cycles is exactly the sum
   of the observed waits. *)
let test_fabric_bandwidth_property =
  let gen =
    QCheck.Gen.(
      let* nodes = 2 -- 4 in
      let* w = 1 -- 4 in
      let* sends =
        list_size (1 -- 40)
          (quad (0 -- 100) (0 -- 100) (0 -- 10) (0 -- 30))
      in
      return (nodes, w, sends))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"bandwidth accounting matches shadow model"
       (QCheck.make gen) (fun (nodes, w, sends) ->
         let lat = 11 in
         let e = Engine.create () in
         let f = Fabric.create e ~nodes ~latency:lat ~words_per_cycle:w () in
         let arrivals = Hashtbl.create 64 in
         for n = 0 to nodes - 1 do
           Fabric.set_receiver f ~node:n (fun m ->
               Hashtbl.replace arrivals m.Message.handler (Engine.now e))
         done;
         let port_free = Array.make nodes 0 in
         let expected = Hashtbl.create 64 in
         let floors = Hashtbl.create 64 in
         let wait_sum = ref 0 in
         let t = ref 0 in
         List.iteri
           (fun i (s, d, nargs, gap) ->
             let src = s mod nodes in
             let dst =
               let d = d mod nodes in
               if d = src then (src + 1) mod nodes else d
             in
             t := !t + gap;
             let at = !t in
             let m =
               Message.make ~src ~dst ~vnet:Message.Request ~handler:i
                 ~args:(Array.make nargs 0) ()
             in
             (* shadow accounting *)
             let occupancy = (Message.words m + w - 1) / w in
             let depart = max at port_free.(src) in
             assert (depart + occupancy >= port_free.(src)) (* monotone *);
             port_free.(src) <- depart + occupancy;
             let arrive = max (depart + lat) port_free.(dst) in
             assert (arrive + occupancy >= port_free.(dst)) (* monotone *);
             port_free.(dst) <- arrive + occupancy;
             wait_sum := !wait_sum + (depart - at) + (arrive - (depart + lat));
             Hashtbl.replace expected i (arrive + occupancy);
             Hashtbl.replace floors i (depart + lat);
             Fabric.send f ~at m)
           sends;
         Engine.run e;
         Hashtbl.iter
           (fun i want ->
             let got = Hashtbl.find arrivals i in
             if got <> want then
               QCheck.Test.fail_reportf
                 "message %d delivered at %d, shadow model says %d" i got want;
             if got < Hashtbl.find floors i then
               QCheck.Test.fail_reportf
                 "message %d delivered at %d, before depart + latency %d" i got
                 (Hashtbl.find floors i))
           expected;
         let waited = Stats.get (Fabric.stats f) "port_wait_cycles" in
         if waited <> !wait_sum then
           QCheck.Test.fail_reportf
             "port_wait_cycles %d, shadow model says %d" waited !wait_sum;
         true))

(* ---------------- Faults ---------------- *)

let faulty_run ~seed () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let fl =
    Faults.create
      (Faults.uniform ~seed ~drop:0.2 ~dup:0.1 ~reorder:0.2 ())
      f
  in
  let log = ref [] in
  Fabric.set_receiver f ~node:1 (fun m ->
      log := (m.Message.handler, Engine.now e) :: !log);
  Fabric.set_receiver f ~node:0 (fun _ -> ());
  for i = 0 to 199 do
    Faults.send fl ~at:(i * 3) (msg ~handler:i ())
  done;
  Engine.run e;
  let s = Faults.stats fl in
  ( List.rev !log,
    Stats.get s "faults.dropped",
    Stats.get s "faults.duplicated",
    Stats.get s "faults.reordered" )

let test_faults_reproducible () =
  let log_a, d_a, u_a, r_a = faulty_run ~seed:42 () in
  let log_b, d_b, u_b, r_b = faulty_run ~seed:42 () in
  check_bool "same seed, same deliveries" true (log_a = log_b);
  check_int "same dropped" d_a d_b;
  check_int "same duplicated" u_a u_b;
  check_int "same reordered" r_a r_b;
  check_bool "faults actually injected" true (d_a > 0 && u_a > 0 && r_a > 0);
  check_int "drops + deliveries account for every send"
    (200 + u_a) (List.length log_a + d_a)

(* Seed-stability regression (pinned): the PRNG draw order documented in
   faults.mli — drop first; survivors draw reorder chance, reorder jitter
   iff hit, dup chance, dup jitter iff hit — determines every recorded
   fault pattern.  Reordering the draws would silently rewrite them all, so
   the exact counter triple for this known traffic sequence is pinned here.
   If this test fails, the fault model's stream contract changed: every
   recorded torture artifact and faultsweep baseline is invalidated. *)
let test_faults_seed_stability () =
  let _, d, u, r = faulty_run ~seed:42 () in
  check_int "dropped (pinned)" 39 d;
  check_int "duplicated (pinned)" 16 u;
  check_int "reordered (pinned)" 39 r

let decisions_under_tap ~mask () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let fl =
    Faults.create
      (Faults.uniform ~seed:42 ~drop:0.2 ~dup:0.1 ~reorder:0.2 ())
      f
  in
  let naturals = ref [] in
  Faults.set_tap fl
    (Some
       (fun ~site d ->
         naturals := (site, d) :: !naturals;
         if mask then Faults.deliver else d));
  Fabric.set_receiver f ~node:1 (fun _ -> ());
  for i = 0 to 99 do
    Faults.send fl ~at:(i * 3) (msg ~handler:i ())
  done;
  Engine.run e;
  (List.rev !naturals, Faults.dropped fl)

let test_faults_tap_stream_alignment () =
  (* the tap contract: the PRNG is consumed identically whether decisions
     are applied or masked, so a masking tap (the torture shrinker's probe
     mechanism) sees exactly the natural run's decision stream *)
  let nat, d_nat = decisions_under_tap ~mask:false () in
  let masked, d_masked = decisions_under_tap ~mask:true () in
  check_bool "masking never shifts later draws" true (nat = masked);
  check_bool "natural run applied faults" true (d_nat > 0);
  check_int "masked run applied none" 0 d_masked

let test_faults_per_vnet_rates () =
  (* a dead request net under a clean response net: only requests vanish *)
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let cfg =
    Faults.per_vnet ~seed:9
      ~request:{ Faults.drop = 1.0; dup = 0.0; reorder = 0.0 }
      ~response:Faults.no_faults ()
  in
  let fl = Faults.create cfg f in
  let got = ref 0 in
  Fabric.set_receiver f ~node:1 (fun _ -> incr got);
  for i = 0 to 9 do
    Faults.send fl ~at:i (msg ~handler:i ~vnet:Message.Request ());
    Faults.send fl ~at:i (msg ~handler:(100 + i) ~vnet:Message.Response ())
  done;
  Engine.run e;
  check_int "responses delivered" 10 !got;
  check_int "requests dropped" 10 (Faults.dropped fl)

let test_faults_full_drop () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let fl = Faults.create (Faults.uniform ~seed:1 ~drop:1.0 ()) f in
  let got = ref 0 in
  Fabric.set_receiver f ~node:1 (fun _ -> incr got);
  for i = 0 to 49 do
    Faults.send fl ~at:i (msg ~handler:i ())
  done;
  Engine.run e;
  check_int "nothing delivered" 0 !got;
  check_int "all dropped" 50 (Faults.dropped fl)

(* ---------------- Gilbert–Elliott bursty loss ---------------- *)

let bursty_run ?burst ~seed () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let fl =
    Faults.create
      (Faults.uniform ~seed ~drop:0.05 ~dup:0.02 ~reorder:0.05 ?burst ())
      f
  in
  let log = ref [] in
  Fabric.set_receiver f ~node:1 (fun m ->
      log := (m.Message.handler, Engine.now e) :: !log);
  Fabric.set_receiver f ~node:0 (fun _ -> ());
  for i = 0 to 399 do
    Faults.send fl ~at:(i * 3) (msg ~handler:i ())
  done;
  Engine.run e;
  let s = Faults.stats fl in
  ( List.rev !log,
    Stats.get s "faults.dropped",
    Stats.get s "faults.duplicated",
    Stats.get s "faults.reordered",
    Stats.get s "faults.burst_bad_sends" )

let test_burst_reproducible () =
  let a = bursty_run ~burst:(Faults.bursty ()) ~seed:42 () in
  let b = bursty_run ~burst:(Faults.bursty ()) ~seed:42 () in
  check_bool "same seed, same burst pattern" true (a = b);
  let _, d, _, _, bad = a in
  check_bool "bad states entered" true (bad > 0);
  check_bool "bursts actually dropped" true (d > 0)

let test_burst_scale_one_is_draw_identical () =
  (* the burst chain draws from private per-link streams; with both scales
     at 1.0 the effective rates are the plain rates, so the delivery log
     and every fault counter must match the no-burst run draw for draw —
     the contract that lets recorded artifacts survive the burst knob *)
  let neutral =
    Faults.bursty ~p_enter:0.05 ~p_exit:0.25 ~good_scale:1.0 ~bad_scale:1.0 ()
  in
  let log_b, d_b, u_b, r_b, _ = bursty_run ~burst:neutral ~seed:42 () in
  let log_p, d_p, u_p, r_p, bad_p = bursty_run ~seed:42 () in
  check_bool "delivery log identical" true (log_b = log_p);
  check_int "dropped identical" d_p d_b;
  check_int "duplicated identical" u_p u_b;
  check_int "reordered identical" r_p r_b;
  check_int "plain run never enters a bad state" 0 bad_p

let test_burst_differs_from_plain () =
  let log_b, _, _, _, _ = bursty_run ~burst:(Faults.bursty ()) ~seed:42 () in
  let log_p, _, _, _, _ = bursty_run ~seed:42 () in
  check_bool "default burst changes the fault pattern" true (log_b <> log_p)

(* ---------------- Reliable ---------------- *)

let mk_reliable ?(nodes = 2) ?(drop = 0.0) ?(dup = 0.0) ?(reorder = 0.0)
    ?(seed = 1) ?max_retries () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes ~latency:11 () in
  let cfg = Faults.uniform ~seed ~drop ~dup ~reorder () in
  (e, Reliable.create ?max_retries e f (Reliable.Flaky cfg))

let test_reliable_exactly_once_in_order () =
  (* heavy drop + dup + reorder on both vnets: the receiver must still see
     every message exactly once, in send order (pair FIFO spans vnets) *)
  let e, r = mk_reliable ~drop:0.3 ~dup:0.2 ~reorder:0.3 ~seed:7 () in
  let got = ref [] in
  Reliable.set_receiver r ~node:1 (fun m -> got := m.Message.handler :: !got);
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  let n = 200 in
  for i = 0 to n - 1 do
    let vnet = if i mod 3 = 0 then Message.Response else Message.Request in
    Reliable.send r ~at:(i * 2) (msg ~handler:i ~vnet ())
  done;
  Engine.run e;
  Alcotest.(check (list int))
    "exactly once, in order"
    (List.init n (fun i -> i))
    (List.rev !got);
  check_bool "losses were repaired by retransmission" true
    (Reliable.retransmits r > 0)

let test_reliable_link_failed () =
  let e, r = mk_reliable ~drop:1.0 ~max_retries:3 () in
  Reliable.set_receiver r ~node:1 (fun _ -> ());
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  Reliable.send r ~at:0 (msg ());
  match Engine.run e with
  | () -> Alcotest.fail "dead link must escalate"
  | exception Reliable.Link_failed m ->
      check_bool "names the link" true (contains m "0->1")

(* Direct edge-path tests below use a tap on the wrapped injector to force
   one precise fault pattern (rates stay 0, so every untapped site is a
   clean delivery). *)
let mk_reliable_tuned ?base_rto ?rto_cap ?max_retries ?window ?(seed = 1) () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let r =
    Reliable.create ?base_rto ?rto_cap ?max_retries ?window e f
      (Reliable.Flaky (Faults.uniform ~seed ()))
  in
  (e, r, Option.get (Reliable.faults r))

let test_reliable_window_full_drops () =
  (* delay the first message past the retransmit timeout: with a 2-entry
     reassembly window, seqs 2..4 arrive out of range and must be dropped
     without acking, then repaired by the sender's retransmission *)
  let e, r, fl = mk_reliable_tuned ~window:2 () in
  Faults.set_tap fl
    (Some
       (fun ~site d ->
         if site = 0 then { d with Faults.reorder_jitter = 2000 } else d));
  let got = ref [] in
  Reliable.set_receiver r ~node:1 (fun m -> got := m.Message.handler :: !got);
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  for i = 0 to 4 do
    Reliable.send r ~at:i (msg ~handler:i ())
  done;
  Engine.run e;
  Alcotest.(check (list int))
    "exactly once, in order despite window drops" [ 0; 1; 2; 3; 4 ]
    (List.rev !got);
  check_int "beyond-window arrivals refused" 3
    (Stats.get (Reliable.stats r) "reliable.window_drops");
  check_bool "late original suppressed as duplicate" true
    (Stats.get (Reliable.stats r) "reliable.dup_dropped" >= 1)

let dead_link_timing ~rto_cap =
  let e, r, fl = mk_reliable_tuned ~base_rto:100 ~rto_cap ~max_retries:3 () in
  Faults.set_tap fl
    (Some
       (fun ~site:_ _ ->
         { Faults.dropped = true; reorder_jitter = 0; dup_jitter = 0 }));
  Reliable.set_receiver r ~node:1 (fun _ -> ());
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  Reliable.send r ~at:0 (msg ());
  match Engine.run e with
  | () -> Alcotest.fail "dead link must escalate"
  | exception Reliable.Link_failed m ->
      check_bool "names the link" true (contains m "0->1");
      (Engine.now e, Reliable.retransmits r)

let test_reliable_backoff_cap () =
  (* base_rto 100, max_retries 3.  Uncapped the retry timers double:
     100, 300, 700, then give up at 1500.  Capped at 200 they flatten:
     100, 300, 500, give up at 700.  Both fail after exactly max_retries
     retransmit rounds. *)
  let t_uncapped, rx_uncapped = dead_link_timing ~rto_cap:100_000 in
  let t_capped, rx_capped = dead_link_timing ~rto_cap:200 in
  check_int "uncapped exponential backoff" 1_500 t_uncapped;
  check_int "capped backoff flattens" 700 t_capped;
  check_int "uncapped: max_retries rounds" 3 rx_uncapped;
  check_int "capped: max_retries rounds" 3 rx_capped

let test_reliable_dup_of_retransmit () =
  (* the original is delayed past the RTO, so the retransmitted copy is
     delivered first; the late original must be suppressed as a duplicate *)
  let e, r, fl = mk_reliable_tuned () in
  Faults.set_tap fl
    (Some
       (fun ~site d ->
         if site = 0 then { d with Faults.reorder_jitter = 1000 } else d));
  let got = ref 0 in
  Reliable.set_receiver r ~node:1 (fun _ -> incr got);
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  Reliable.send r ~at:0 (msg ());
  Engine.run e;
  check_int "delivered exactly once" 1 !got;
  check_int "one retransmission" 1 (Reliable.retransmits r);
  check_int "late original dropped as dup" 1
    (Stats.get (Reliable.stats r) "reliable.dup_dropped")

let test_reliable_perfect_passthrough () =
  (* Perfect policy is an exact Fabric pass-through: same arrival time, no
     transport envelope *)
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let r = Reliable.create e f Reliable.Perfect in
  let arrival = ref (-1) and seq = ref 0 in
  Reliable.set_receiver r ~node:1 (fun m ->
      arrival := Engine.now e;
      seq := m.Message.seq);
  Reliable.send r ~at:100 (msg ());
  Engine.run e;
  check_int "fabric timing" 111 !arrival;
  check_int "unsequenced" (-1) !seq;
  check_int "no transport traffic" 0
    (Stats.get (Reliable.stats r) "reliable.data_sent")

(* ---------------- crash-stop failures ---------------- *)

(* Tests that inject crash windows must hold the recovery switch on for
   their duration: the suite also runs under TT_RECOVERY=0 (see
   scripts/check_all.sh), where [Faults.create] would otherwise
   ignore the schedule and the window under test would never open. *)
let with_recovery_on f () =
  let prior = Faults.recovery_enabled () in
  Fun.protect
    ~finally:(fun () -> Faults.set_recovery prior)
    (fun () ->
      Faults.set_recovery true;
      f ())

let test_bidirectional_link_failed () =
  (* both directions of a pair exhaust their retry budgets against a 100%
     lossy fabric at the same time: the escalation must still be a single
     deterministic Link_failed naming one link, not a race *)
  let failure () =
    let e, r = mk_reliable ~drop:1.0 ~max_retries:3 () in
    Reliable.set_receiver r ~node:1 (fun _ -> ());
    Reliable.set_receiver r ~node:0 (fun _ -> ());
    Reliable.send r ~at:0 (msg ~src:0 ~dst:1 ());
    Reliable.send r ~at:0 (msg ~src:1 ~dst:0 ());
    match Engine.run e with
    | () -> Alcotest.fail "two dead links must escalate"
    | exception Reliable.Link_failed m -> m
  in
  let first = failure () in
  Alcotest.(check string) "deterministic loser" first (failure ());
  check_bool "names a link" true (contains first "->")

let test_dead_peer_parks_without_retransmits () =
  (* satellite guarantee: once the liveness verdict says the destination
     is dead, retransmissions toward it stop counting against the
     watchdog's budget — the channel parks, the death notice fires, and
     the held queue replays only at the revival verdict (counted under
     rejoin_retransmits instead) *)
  let e, r, fl = mk_reliable_tuned ~base_rto:100 () in
  let dead = ref true in
  Reliable.set_liveness r ~is_dead:(fun n -> !dead && n = 1);
  let notices = ref [] in
  Reliable.set_death_notice r
    (Some (fun ~src ~dst -> notices := (src, dst) :: !notices));
  Faults.set_tap fl
    (Some
       (fun ~site:_ d ->
         if !dead then { d with Faults.dropped = true } else d));
  let got = ref 0 in
  Reliable.set_receiver r ~node:1 (fun _ -> incr got);
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  Reliable.send r ~at:0 (msg ());
  Engine.at e 5_000 (fun () ->
      dead := false;
      Faults.set_tap fl None;
      Reliable.on_peer_alive r ~node:1);
  Engine.run e;
  check_int "delivered after revival" 1 !got;
  check_int "no budget-counted retransmits" 0 (Reliable.retransmits r);
  check_bool "replay counted separately" true
    (Stats.get (Reliable.stats r) "reliable.rejoin_retransmits" >= 1);
  Alcotest.(check (list (pair int int))) "one death notice" [ (0, 1) ] !notices

let test_peer_dead_raises_without_recovery () =
  (* no recovery layer listening: the dead-peer encounter must escalate
     promptly as Peer_dead, not grind through a retransmission storm *)
  let e, r, _ = mk_reliable_tuned () in
  Reliable.set_liveness r ~is_dead:(fun n -> n = 1);
  Reliable.set_receiver r ~node:1 (fun _ -> ());
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  match
    Reliable.send r ~at:0 (msg ());
    Engine.run e
  with
  | () -> Alcotest.fail "dead peer must escalate"
  | exception Reliable.Peer_dead m ->
      check_bool "names the peer" true (contains m "1");
      check_int "promptly: no retransmission storm" 0 (Reliable.retransmits r)

let test_crash_window_heals_after_rejoin () =
  (* victim 1 is down for cycles [0, 2000): sends toward it are swallowed
     at delivery, its own sends at the source; after the rejoin, ordinary
     retransmission repairs both directions without any death verdict —
     the sub-lease "masked outage" path *)
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 ~latency:11 () in
  let cfg =
    Faults.uniform ~seed:1
      ~crashes:[ Faults.crash ~victim:1 ~at:0 ~rejoin:2_000 () ]
      ()
  in
  let r = Reliable.create e f (Reliable.Flaky cfg) in
  let got0 = ref 0 and got1 = ref 0 in
  Reliable.set_receiver r ~node:0 (fun _ -> incr got0);
  Reliable.set_receiver r ~node:1 (fun _ -> incr got1);
  Reliable.send r ~at:100 (msg ~src:0 ~dst:1 ());
  Reliable.send r ~at:100 (msg ~src:1 ~dst:0 ());
  Engine.run e;
  check_int "survivor's message reached the revived victim" 1 !got1;
  check_int "the victim's own held queue replayed after rejoin" 1 !got0;
  check_bool "the window swallowed traffic" true
    (Stats.get (Option.get (Reliable.fault_stats r)) "faults.crash_dropped"
    >= 1)

let test_liveness_verdicts () =
  (* lease/heartbeat detection over a crash window: one death verdict once
     the victim has been silent past the lease, one revival verdict after
     its heartbeats resume; the election picks the lowest live rank *)
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:4 ~latency:11 () in
  let cfg =
    Faults.uniform ~seed:1
      ~crashes:[ Faults.crash ~victim:2 ~at:500 ~rejoin:20_000 () ]
      ()
  in
  let r = Reliable.create e f (Reliable.Flaky cfg) in
  for n = 0 to 3 do
    Reliable.set_receiver r ~node:n (fun _ -> ())
  done;
  let lv = Tt_net.Liveness.create e r in
  let dead_seen = ref [] and alive_seen = ref [] in
  Tt_net.Liveness.set_on_dead lv (fun n -> dead_seen := n :: !dead_seen);
  Tt_net.Liveness.set_on_alive lv (fun n -> alive_seen := n :: !alive_seen);
  (* period = 32 × latency = 352, lease = 4 periods = 1408 *)
  ignore (Engine.run_until e ~limit:10_000);
  check_bool "declared dead" true (Tt_net.Liveness.is_dead lv 2);
  check_int "one death verdict" 1 (Tt_net.Liveness.deaths lv);
  check_int "lowest live rank" 0 (Tt_net.Liveness.lowest_live lv);
  ignore (Engine.run_until e ~limit:30_000);
  check_bool "revived after heartbeats resumed" false
    (Tt_net.Liveness.is_dead lv 2);
  check_int "one revival verdict" 1 (Tt_net.Liveness.revivals lv);
  Alcotest.(check (list int)) "death hook" [ 2 ] !dead_seen;
  Alcotest.(check (list int)) "revival hook" [ 2 ] !alive_seen;
  Tt_net.Liveness.stop lv

let test_scrub_unacked_neutralizes () =
  (* scrubbing rewrites held messages' handlers to the recovery no-op in
     both directions while preserving sequence numbers, so a later replay
     keeps per-pair ordering but delivers only no-ops *)
  let e, r, fl = mk_reliable_tuned ~base_rto:100 () in
  let dead = ref true in
  Reliable.set_liveness r ~is_dead:(fun n -> !dead && n = 1);
  Reliable.set_death_notice r (Some (fun ~src:_ ~dst:_ -> ()));
  Faults.set_tap fl
    (Some
       (fun ~site:_ d ->
         if !dead then { d with Faults.dropped = true } else d));
  let got = ref [] in
  Reliable.set_receiver r ~node:1 (fun m -> got := m.Message.handler :: !got);
  Reliable.set_receiver r ~node:0 (fun _ -> ());
  Reliable.send r ~at:0 (msg ~handler:7 ());
  Reliable.send r ~at:0 (msg ~handler:8 ());
  Engine.at e 5_000 (fun () ->
      check_int "both held messages scrubbed" 2
        (Reliable.scrub_unacked r ~node:1 ~handler:99);
      dead := false;
      Faults.set_tap fl None;
      Reliable.on_peer_alive r ~node:1);
  Engine.run e;
  Alcotest.(check (list int))
    "replay delivers the no-op, in order" [ 99; 99 ] (List.rev !got)

let test_fabric_causality_clamp () =
  (* a send stamped in the past (sender clock lagging) still delivers at or
     after 'now' *)
  let e, f = mk_fabric () in
  let arrival = ref (-1) in
  Fabric.set_receiver f ~node:1 (fun _ -> arrival := Engine.now e);
  Engine.at e 500 (fun () -> Fabric.send f ~at:3 (msg ()));
  Engine.run e;
  check_bool "clamped to now" true (!arrival >= 500)

let () =
  Alcotest.run "net"
    [
      ( "message",
        [
          Alcotest.test_case "word accounting" `Quick test_message_word_accounting;
          Alcotest.test_case "packet limit" `Quick test_message_packet_limit;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "delivery time" `Quick test_fabric_delivery_time;
          Alcotest.test_case "local short circuit" `Quick
            test_fabric_local_short_circuit;
          Alcotest.test_case "pairwise FIFO" `Quick test_fabric_pairwise_fifo;
          Alcotest.test_case "traffic stats" `Quick test_fabric_stats;
          Alcotest.test_case "missing receiver" `Quick test_fabric_no_receiver;
          Alcotest.test_case "missing receiver names message" `Quick
            test_fabric_no_receiver_message;
          Alcotest.test_case "bad destination" `Quick test_fabric_bad_destination;
          Alcotest.test_case "bad source" `Quick test_fabric_bad_source;
          Alcotest.test_case "causality clamp" `Quick test_fabric_causality_clamp;
          test_fabric_bandwidth_property;
        ] );
      ( "faults",
        [
          Alcotest.test_case "reproducible per seed" `Quick
            test_faults_reproducible;
          Alcotest.test_case "seed stability (pinned triple)" `Quick
            test_faults_seed_stability;
          Alcotest.test_case "tap stream alignment" `Quick
            test_faults_tap_stream_alignment;
          Alcotest.test_case "per-vnet rates" `Quick test_faults_per_vnet_rates;
          Alcotest.test_case "full drop" `Quick test_faults_full_drop;
          Alcotest.test_case "bursty loss reproducible" `Quick
            test_burst_reproducible;
          Alcotest.test_case "neutral burst scales draw-identical" `Quick
            test_burst_scale_one_is_draw_identical;
          Alcotest.test_case "bursty loss differs from plain" `Quick
            test_burst_differs_from_plain;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "exactly once, in order" `Quick
            test_reliable_exactly_once_in_order;
          Alcotest.test_case "dead link escalates" `Quick
            test_reliable_link_failed;
          Alcotest.test_case "window-full arrivals refused" `Quick
            test_reliable_window_full_drops;
          Alcotest.test_case "backoff caps at rto_cap" `Quick
            test_reliable_backoff_cap;
          Alcotest.test_case "retransmit beats delayed original" `Quick
            test_reliable_dup_of_retransmit;
          Alcotest.test_case "perfect pass-through" `Quick
            test_reliable_perfect_passthrough;
        ] );
      ( "crash-stop",
        [
          Alcotest.test_case "simultaneous bidirectional link failure" `Quick
            test_bidirectional_link_failed;
          Alcotest.test_case "dead peer parks without retransmits" `Quick
            test_dead_peer_parks_without_retransmits;
          Alcotest.test_case "Peer_dead without a recovery layer" `Quick
            test_peer_dead_raises_without_recovery;
          Alcotest.test_case "crash window heals after rejoin" `Quick
            (with_recovery_on test_crash_window_heals_after_rejoin);
          Alcotest.test_case "liveness verdicts" `Quick
            (with_recovery_on test_liveness_verdicts);
          Alcotest.test_case "scrub neutralizes held queues" `Quick
            test_scrub_unacked_neutralizes;
        ] );
    ]
