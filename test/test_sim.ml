(* Tests for the discrete-event engine, effect-based threads, barriers and
   locks. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Barrier = Tt_sim.Barrier
module Lock = Tt_sim.Lock
module Ctrl = Tt_sim.Ctrl
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ---------------- Engine ---------------- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 30 (fun () -> log := 30 :: !log);
  Engine.at e 10 (fun () -> log := 10 :: !log);
  Engine.at e 20 (fun () -> log := 20 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  check_int "now = last event" 30 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.at e 5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal timestamps"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.at e 10 (fun () ->
      try
        Engine.at e 5 (fun () -> ());
        Alcotest.fail "scheduling in the past must raise"
      with Invalid_argument _ -> ());
  Engine.run e

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 1 (fun () ->
      log := 1 :: !log;
      Engine.after e 5 (fun () -> log := 6 :: !log);
      Engine.after e 1 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "nested" [ 1; 2; 6 ] (List.rev !log)

let prop_engine_stable_order =
  QCheck.Test.make ~name:"events fire time-major, FIFO within a time"
    ~count:200
    QCheck.(list (int_range 0 50))
    (fun times ->
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i time -> Engine.at e time (fun () -> log := (time, i) :: !log))
        times;
      Engine.run e;
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i time -> (time, i)) times)
      in
      List.rev !log = expected)

let test_engine_hot_path_no_alloc () =
  (* the packed-key queue must not allocate per event: everything lives in
     the heap's preallocated arrays, and the only closure is the caller's *)
  let e = Engine.create () in
  let remaining = ref 0 in
  let fn = ref (fun () -> ()) in
  (fn :=
     fun () ->
       if !remaining > 0 then begin
         decr remaining;
         Engine.after e 1 !fn
       end);
  (* warm up: run the self-rescheduling chain once so arrays are sized *)
  remaining := 10;
  Engine.after e 1 !fn;
  Engine.run e;
  let n = 10_000 in
  remaining := n;
  Engine.after e 1 !fn;
  let before = Gc.minor_words () in
  Engine.run e;
  let delta = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "minor words per event ~0 (delta %.0f over %d events)"
       delta n)
    true
    (delta < 256.0)

let test_engine_after_overflow () =
  let e = Engine.create () in
  let max_time = max_int asr 20 in
  (* the exact boundary is schedulable *)
  Engine.after e max_time (fun () -> ());
  (* one past it must raise with both operands named, not wrap *)
  Alcotest.check_raises "after overflow"
    (Invalid_argument
       (Printf.sprintf
          "Engine.after: delay %d from now=%d overflows the schedulable time \
           budget (max %d)"
          (max_time + 1) 0 max_time))
    (fun () -> Engine.after e (max_time + 1) (fun () -> ()));
  (* a delay that wraps clean past max_int back into valid range must also
     be rejected, not silently scheduled in the "past" or future *)
  Alcotest.check_raises "after wraparound"
    (Invalid_argument
       (Printf.sprintf
          "Engine.after: delay %d from now=%d overflows the schedulable time \
           budget (max %d)"
          max_int 0 max_time))
    (fun () -> Engine.after e max_int (fun () -> ()))

(* [n] same-time events that only count themselves: enough of them exhaust
   the seq budget without the queue draining. *)
let push_filler e n fired =
  for _ = 1 to n do
    Engine.after e 0 (fun () -> incr fired)
  done

(* Schedule past seq_limit coexisting events so [rebase] renumbers the live
   queue, and pin that FIFO order among equal timestamps survives it. *)
let run_rebase_fifo tiebreak () =
  let e = Engine.create () in
  Engine.set_tiebreak e tiebreak;
  let seq_limit = 1 lsl 20 in
  let log = ref [] in
  let marker i () = log := i :: !log in
  (* five markers at a far-future time, then enough same-time filler to
     exhaust the seq budget without ever draining the queue ... *)
  for i = 0 to 4 do
    Engine.at e 1_000_000 (marker i)
  done;
  let fired = ref 0 in
  push_filler e (seq_limit - 5) fired;
  (* ... drain only the time-0 filler: the markers stay queued and keep
     their pre-rebase seqs alive *)
  check_bool "filler drained" false (Engine.run_until e ~limit:0);
  check_int "filler fired" (seq_limit - 5) !fired;
  check_int "markers still queued" 5 (Engine.pending e);
  (* these pushes overflow seq and trigger the in-place renumbering *)
  for i = 5 to 9 do
    Engine.at e 1_000_000 (marker i)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO across rebase"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_engine_rebase_fifo = run_rebase_fifo None

(* an all-zero salt stream must reproduce pure FIFO, including through a
   rebase of salted keys *)
let test_engine_rebase_fifo_tiebreak = run_rebase_fifo (Some (fun _ -> 0))

(* Regression: rebase under a *nonzero*-salt perturber.  Renumbering the
   full seq field would clobber the salt bits with drain position, so a
   rebased event would order against a later same-time push by position
   instead of by salt.  Pin that salts survive: three markers carrying
   salts 3, 1, 2 cross a rebase, then a fourth arrives with salt 2 — it
   must slot between the salt-2 and salt-3 survivors (salt order
   1, 2, 2', 3), not after all of them. *)
let test_engine_rebase_preserves_salt () =
  let e = Engine.create () in
  let salts = ref [ 3; 1; 2 ] in
  Engine.set_tiebreak e
    (Some
       (fun _ ->
         match !salts with
         | s :: rest ->
             salts := rest;
             s
         | [] -> 0));
  let seq_limit = 1 lsl 20 in
  let log = ref [] in
  let marker i () = log := i :: !log in
  for i = 0 to 2 do
    Engine.at e 1_000_000 (marker i)
  done;
  let fired = ref 0 in
  for _ = 1 to seq_limit - 3 do
    Engine.after e 0 (fun () -> incr fired)
  done;
  check_bool "filler drained" false (Engine.run_until e ~limit:0);
  check_int "filler fired" (seq_limit - 3) !fired;
  check_int "markers still queued" 3 (Engine.pending e);
  (* this push overflows seq, rebases the three salted markers, and then
     carries its own salt 2 *)
  salts := [ 2 ];
  Engine.at e 1_000_000 (marker 3);
  Engine.run e;
  Alcotest.(check (list int)) "salt order across rebase" [ 1; 2; 3; 0 ]
    (List.rev !log)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.at e 10 (fun () -> incr fired);
  Engine.at e 100 (fun () -> incr fired);
  let finished = Engine.run_until e ~limit:50 in
  check_bool "not finished" false finished;
  check_int "one event fired" 1 !fired;
  check_int "pending" 1 (Engine.pending e);
  check_bool "finishes" true (Engine.run_until e ~limit:1000)

(* ---------------- Reservations ---------------- *)

let check_order = Alcotest.(check (list string))

(* A claimed reservation fires where the dispatch it stands in for would
   have: after the same-time events queued before [reserve], before those
   queued after it. *)
let test_reserve_claim_order () =
  let e = Engine.create () in
  let r = Engine.reservation e in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.at e 10 (fun () ->
      Engine.at e 20 (note "before");
      check_bool "reserved" true (Engine.reserve e r 20);
      Engine.at e 20 (note "after");
      Engine.at e 15 (fun () ->
          check_bool "claimed" true (Engine.claim e r (note "claimed"))));
  Engine.run e;
  check_order "FIFO position kept" [ "before"; "claimed"; "after" ]
    (List.rev !log)

(* Unclaimed, it is dead as soon as its dispatch would have fired: once a
   later key fires, or [skip_to] stands in for a later event. *)
let test_reserve_dies () =
  let e = Engine.create () in
  let r = Engine.reservation e in
  let claims = ref [] in
  let claim () = claims := Engine.claim e r ignore :: !claims in
  Engine.at e 10 (fun () ->
      ignore (Engine.reserve e r 20);
      (* queued after the reservation: a later key at the same time *)
      Engine.at e 20 claim);
  Engine.at e 30 (fun () ->
      ignore (Engine.reserve e r 40);
      Engine.skip_to e 45;
      claim ();
      ignore (Engine.reserve e r 50);
      Engine.skip_to e 50;
      claim ();
      (* skipping short of it leaves it live *)
      ignore (Engine.reserve e r 70);
      Engine.skip_to e 60;
      claim ());
  Engine.run e;
  Alcotest.(check (list bool)) "live only when nothing passed it"
    [ false; false; false; true ] (List.rev !claims)

(* The queue draining does not restart the seq counter while a reservation
   is live, or an event pushed later at the reserved time would take a
   smaller seq and overtake the claimed dispatch. *)
let test_reserve_blocks_seq_reset () =
  let e = Engine.create () in
  let r = Engine.reservation e in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.at e 10 (fun () ->
      for _ = 1 to 3 do
        Engine.at e 12 ignore
      done;
      ignore (Engine.reserve e r 20);
      (* fires on a queue it drains, with the reservation live *)
      Engine.at e 15 (fun () ->
          Engine.at e 20 (note "pushed after the drain");
          ignore (Engine.claim e r (note "claimed"))));
  Engine.run e;
  check_order "claimed first" [ "claimed"; "pushed after the drain" ]
    (List.rev !log)

(* [rebase] renumbers a live reservation along with the queue. *)
let test_reserve_survives_rebase () =
  let e = Engine.create () in
  let r = Engine.reservation e in
  let log = ref [] in
  let marker i () = log := i :: !log in
  let far = 1_000_000 in
  let fired = ref 0 in
  Engine.at e 0 (fun () ->
      Engine.at e far (marker 0);
      Engine.at e far (marker 1);
      ignore (Engine.reserve e r far);
      Engine.at e far (marker 3);
      push_filler e (1 lsl 20) fired;
      (* this push overflows seq and renumbers queue and reservation *)
      Engine.at e far (marker 4));
  Engine.at e 1 (fun () ->
      check_bool "still live after rebase" true (Engine.claim e r (marker 2)));
  Engine.run e;
  check_int "filler fired" (1 lsl 20) !fired;
  Alcotest.(check (list int)) "order across rebase" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

(* Only [run] without a perturber hands out reservations: [run_until]
   (watchdog slices), [step] and a tie-break perturber see every event. *)
let test_reserve_refused () =
  let e = Engine.create () in
  let r = Engine.reservation e in
  let got = ref [] in
  let try_reserve () = got := Engine.reserve e r (Engine.now e) :: !got in
  try_reserve ();
  Engine.at e 1 try_reserve;
  check_bool "stepped" true (Engine.step e);
  Engine.at e 2 try_reserve;
  check_bool "drained" true (Engine.run_until e ~limit:10);
  Engine.set_tiebreak e (Some (fun _ -> 0));
  Engine.at e 3 try_reserve;
  Engine.run e;
  Alcotest.(check (list bool)) "all refused" [ false; false; false; false ]
    !got;
  Engine.set_tiebreak e None;
  Engine.at e 4 try_reserve;
  Engine.run e;
  check_bool "granted under run" true (List.hd !got)

(* The no-op dispatches reservations stand in for would fire last, so [run]
   ends with [now] at the latest live one. *)
let test_reserve_run_end () =
  let e = Engine.create () in
  let r1 = Engine.reservation e and r2 = Engine.reservation e in
  Engine.at e 10 (fun () ->
      ignore (Engine.reserve e r1 50);
      ignore (Engine.reserve e r2 30));
  Engine.run e;
  check_int "now at the latest reservation" 50 (Engine.now e);
  check_int "nothing queued" 0 (Engine.pending e);
  check_bool "dead afterwards" false (Engine.claim e r1 ignore)

(* A controller over one ring whose [run c item] runs each item; returns
   the controller and a post function (ready now unless [at] is given). *)
let ring_ctrl e ~dummy run =
  let c = Ctrl.create e in
  let ring = Ctrl.Ring.create dummy in
  let serve ring clock =
    if Ctrl.Ring.ready ring clock then begin
      run c (Ctrl.Ring.pop ring);
      clock
    end
    else Ctrl.Ring.next ring
  in
  Ctrl.install c (fun () -> Ctrl.run c ring ~serve ~depth:Ctrl.Ring.length);
  let post ?(at = Engine.now e) x =
    Ctrl.Ring.push ring ~at x;
    Ctrl.kick c
  in
  (c, post)

(* Parity: random multi-controller workloads give the same handler trace,
   final [now] and tie-break site count under [run] (reservations on) as
   under [run_until] past the last event (reservations off).  Each
   controller is a [Ctrl] over one ring of (item, cost, onward) work. *)
let make_ctrl e trace cid =
  snd
    (ring_ctrl e ~dummy:(0, 0, ignore) (fun c (item, cost, onward) ->
         trace := (Engine.now e, cid, item) :: !trace;
         Ctrl.charge c cost;
         onward ()))

let run_workload ~reservations ~salted (ncs, posts, fiber) =
  let e = Engine.create () in
  if salted then Engine.set_tiebreak e (Some (fun site -> site * 7));
  let trace = ref [] in
  let cs = Array.init ncs (make_ctrl e trace) in
  let post item (_, target, cost, onward) =
    let onward () =
      match onward with
      | None -> ()
      | Some (t2, cost2) ->
          cs.(t2 mod ncs) (1000 + item, cost2, ignore)
    in
    cs.(target mod ncs) (item, cost, onward)
  in
  List.iteri
    (fun i ((time, _, _, _) as p) -> Engine.at e time (fun () -> post i p))
    posts;
  let _fiber =
    Thread.spawn e ~name:"fiber" (fun th ->
        List.iteri
          (fun i ((delay, _, _, _) as p) ->
            Thread.advance th delay;
            Thread.yield th;
            post (2000 + i) p)
          fiber)
  in
  if reservations then Engine.run e
  else check_bool "drained" true (Engine.run_until e ~limit:1_000_000);
  (List.rev !trace, Engine.now e, Engine.tiebreak_sites e)

let gen_workload =
  let open QCheck.Gen in
  let post =
    (* (time or fiber delay, controller, cost, onward (controller, cost));
       a narrow time range and zero costs force same-time collisions *)
    quad (int_range 0 12) (int_range 0 3) (int_range 0 4)
      (opt (pair (int_range 0 3) (int_range 0 4)))
  in
  triple (int_range 1 4) (list_size (int_range 0 25) post)
    (list_size (int_range 0 10) post)

let prop_reserve_parity =
  QCheck.Test.make ~name:"reservations: same handler trace as eager dispatch"
    ~count:300
    (QCheck.make gen_workload)
    (fun w ->
      List.for_all
        (fun salted ->
          run_workload ~reservations:true ~salted w
          = run_workload ~reservations:false ~salted w)
        [ false; true ])

(* ---------------- Ctrl ---------------- *)

(* A controller whose items are (name, cost); the log records (name,
   engine time) as items run. *)
let logged_ctrl e log =
  ring_ctrl e ~dummy:("", 0) (fun c (name, cost) ->
      log := (name, Engine.now e) :: !log;
      Ctrl.charge c cost)

let check_log what expected log =
  Alcotest.(check (list (pair string int))) what expected (List.rev !log)

(* An event already queued at the controller's clock runs before the next
   item: the loop drains inline only while every queued event is strictly
   later, and a yield with items left schedules the next dispatch. *)
let test_ctrl_yields_to_due_event () =
  let e = Engine.create () in
  let log = ref [] in
  let _, post = logged_ctrl e log in
  Engine.at e 0 (fun () ->
      post ("a", 5);
      post ("b", 0));
  Engine.at e 5 (fun () -> log := ("event", 5) :: !log);
  Engine.run e;
  check_log "order" [ ("a", 0); ("event", 5); ("b", 5) ] log

(* An item with a future ready time makes the loop idle until then; a post
   to an idle controller starts it at the post's time, not at its stale
   clock. *)
let test_ctrl_waits_for_ready_time () =
  let e = Engine.create () in
  let log = ref [] in
  let c, post = logged_ctrl e log in
  Engine.at e 3 (fun () -> post ~at:40 ("late", 2));
  Engine.at e 50 (fun () -> post ("next", 1));
  Engine.run e;
  check_log "order" [ ("late", 40); ("next", 50) ] log;
  check_int "clock" 51 (Ctrl.clock c);
  check_int "handled" 2 (Ctrl.handled c);
  check_int "busy cycles" 3 (Ctrl.busy_cycles c)

(* A yield with nothing queued reserves the dispatch's place and queues no
   event; the next post claims it, so the item runs ahead of an event
   scheduled after the yield at the same time, exactly as the eager
   dispatch would have. *)
let test_ctrl_claims_after_idle_yield () =
  let e = Engine.create () in
  let log = ref [] in
  let _, post = logged_ctrl e log in
  Engine.at e 3 (fun () -> post ("a", 10));
  Engine.at e 13 (fun () ->
      check_int "idle: no dispatch queued" 0 (Engine.pending e);
      Engine.at e 13 (fun () -> log := ("later", 13) :: !log);
      post ("b", 0));
  Engine.run e;
  check_log "order" [ ("a", 3); ("b", 13); ("later", 13) ] log

(* ---------------- Thread ---------------- *)

let test_thread_basic_lifecycle () =
  let e = Engine.create () in
  let ran = ref false in
  let th =
    Thread.spawn e ~name:"t" (fun th ->
        Thread.advance th 42;
        ran := true)
  in
  check_bool "not run before engine" false !ran;
  Engine.run e;
  check_bool "ran" true !ran;
  check_bool "finished" true (Thread.finished th);
  check_int "clock" 42 (Thread.clock th)

let test_thread_suspend_resume_value () =
  let e = Engine.create () in
  let got = ref 0 in
  let _th =
    Thread.spawn e ~name:"t" (fun th ->
        let v = Thread.await th (fun wake -> Engine.after e 10 (fun () -> wake 17)) in
        got := v)
  in
  Engine.run e;
  check_int "value delivered" 17 !got

let test_thread_wake_sets_clock () =
  let e = Engine.create () in
  let resumed_clock = ref 0 in
  let _th =
    Thread.spawn e ~name:"t" (fun th ->
        Thread.advance th 5;
        Thread.await_unit th (fun wake -> Engine.at e 100 (fun () -> wake ()));
        resumed_clock := Thread.clock th)
  in
  Engine.run e;
  (* woken at engine time 100 with local clock 5: clock jumps to 100 *)
  check_int "clock advanced to wake time" 100 !resumed_clock

let test_thread_wake_twice_rejected () =
  let e = Engine.create () in
  let saved = ref (fun _ -> ()) in
  let _th =
    Thread.spawn e ~name:"t" (fun th ->
        ignore (Thread.await th (fun wake -> saved := wake)))
  in
  Engine.run e;
  !saved 0;
  Engine.run e;
  Alcotest.check_raises "second wake rejected"
    (Invalid_argument "Thread t woken twice") (fun () -> !saved 0)

(* [unpark] with no park/await in flight is a distinct bug from a double
   wake and must say so: the slot is idle, nothing was ever registered. *)
let test_thread_unpark_idle_rejected () =
  let e = Engine.create () in
  let th = Thread.spawn e ~name:"t" (fun th -> Thread.advance th 1) in
  Engine.run e;
  check_bool "finished" true (Thread.finished th);
  Alcotest.check_raises "unpark on idle slot"
    (Invalid_argument
       "Thread t: woken with no blocking operation in flight (slot idle)")
    (fun () -> Thread.unpark th)

(* Fast-path slot: a waker that fires before registration returns delivers
   its value inline, with no fiber suspension.  100 such awaits, in both
   modes whatever TT_FASTPATH says: the fast path completes all but the one
   suspension forced after a streak of 64 elisions; with it off, every
   await suspends. *)
let test_thread_wake_before_registration_returns () =
  let awaits () =
    let e = Engine.create () in
    let ns = Stats.create "slot" in
    let sum = ref 0 in
    let _th =
      Thread.spawn e ~name:"t" (fun th ->
          Thread.set_suspend_counters th
            ~taken:(Stats.counter ns "suspensions_taken")
            ~elided:(Stats.counter ns "suspensions_elided");
          for i = 1 to 100 do
            sum := !sum + Thread.await th (fun wake -> wake i)
          done)
    in
    Engine.run e;
    check_int "every value delivered" 5050 !sum;
    (Stats.get ns "suspensions_taken", Stats.get ns "suspensions_elided")
  in
  let run fastpath =
    let prev = Thread.fastpath_enabled () in
    Thread.set_fastpath fastpath;
    Fun.protect ~finally:(fun () -> Thread.set_fastpath prev) awaits
  in
  let taken, elided = run true in
  check_int "fast path: one forced suspension" 1 taken;
  check_int "fast path: the rest elided" 99 elided;
  let taken, elided = run false in
  check_int "slow path: every await suspends" 100 taken;
  check_int "slow path: none elided" 0 elided

(* A wake that fires during registration while a same-time event is already
   queued must NOT run the continuation inline: the queued event holds the
   smaller FIFO sequence number and has to fire first. *)
let test_thread_wake_during_registration_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let _th =
    Thread.spawn e ~name:"t" (fun th ->
        Thread.await_unit th (fun wake ->
            Engine.at e 0 (fun () -> order := "queued" :: !order);
            wake ());
        order := "resumed" :: !order)
  in
  Engine.run e;
  check_bool "queued event fired before the woken thread" true
    (List.rev !order = [ "queued"; "resumed" ])

(* Both wakes land inside the registration closure: the second must be
   rejected with the same error the post-suspension path raises. *)
let test_thread_double_fire_in_registration () =
  let e = Engine.create () in
  let _th =
    Thread.spawn e ~name:"t" (fun th ->
        ignore
          (Thread.await th (fun wake ->
               wake 1;
               wake 2)))
  in
  Alcotest.check_raises "second fire rejected"
    (Thread.Failure_in ("t", Invalid_argument "Thread t woken twice"))
    (fun () -> Engine.run e)

let test_thread_exception_wrapped () =
  let e = Engine.create () in
  let _th = Thread.spawn e ~name:"boom" (fun _ -> failwith "oops") in
  (try
     Engine.run e;
     Alcotest.fail "expected Failure_in"
   with Thread.Failure_in (name, Failure msg) ->
     check_bool "thread name" true (name = "boom");
     check_bool "message" true (msg = "oops"));
  ()

let test_thread_maybe_yield_interleaves () =
  (* two threads doing pure local work must interleave at quantum
     granularity rather than running to completion one after the other *)
  let e = Engine.create () in
  let order = ref [] in
  let body id th =
    for step = 0 to 3 do
      Thread.advance th 100;
      Thread.maybe_yield th;
      order := (id, step) :: !order
    done
  in
  let _a = Thread.spawn e ~quantum:50 ~name:"a" (body `A) in
  let _b = Thread.spawn e ~quantum:50 ~name:"b" (body `B) in
  Engine.run e;
  let seq = List.rev !order in
  (* with 100-cycle steps and a 50-cycle quantum, A and B must alternate *)
  let rec alternates = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <> b && alternates rest
    | [ _ ] | [] -> true
  in
  check_bool "threads alternate" true (alternates seq)

let test_thread_set_clock () =
  let e = Engine.create () in
  let th = Thread.spawn e ~name:"t" (fun _ -> ()) in
  Thread.set_clock th 123;
  check_int "set_clock" 123 (Thread.clock th);
  Engine.run e

(* ---------------- Barrier ---------------- *)

let test_barrier_releases_all_at_max () =
  let e = Engine.create () in
  let b = Barrier.create e ~participants:3 ~latency:11 in
  let clocks = Array.make 3 0 in
  let spawn i arrive =
    Thread.spawn e ~name:(Printf.sprintf "p%d" i) (fun th ->
        Thread.advance th arrive;
        Barrier.wait b th;
        clocks.(i) <- Thread.clock th)
  in
  let _ = spawn 0 10 and _ = spawn 1 50 and _ = spawn 2 30 in
  Engine.run e;
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "p%d released at max+latency" i) 61 c)
    clocks;
  check_int "one episode" 1 (Barrier.episodes b)

let test_barrier_reusable () =
  let e = Engine.create () in
  let b = Barrier.create e ~participants:2 ~latency:5 in
  let rounds = 4 in
  let body th =
    for _ = 1 to rounds do
      Thread.advance th 3;
      Barrier.wait b th
    done
  in
  let t1 = Thread.spawn e ~name:"x" body in
  let t2 = Thread.spawn e ~name:"y" body in
  Engine.run e;
  check_bool "both finished" true (Thread.finished t1 && Thread.finished t2);
  check_int "episodes" rounds (Barrier.episodes b)

let test_barrier_single_participant () =
  let e = Engine.create () in
  let b = Barrier.create e ~participants:1 ~latency:7 in
  let th =
    Thread.spawn e ~name:"solo" (fun th ->
        Barrier.wait b th;
        Barrier.wait b th)
  in
  Engine.run e;
  check_bool "finished" true (Thread.finished th);
  check_int "latency charged twice" 14 (Thread.clock th)

(* ---------------- Lock ---------------- *)

let test_lock_mutual_exclusion () =
  let e = Engine.create () in
  let l = Lock.create e () in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  let body th =
    for _ = 1 to 5 do
      Lock.acquire l th;
      incr inside;
      if !inside > !max_inside then max_inside := !inside;
      incr total;
      Thread.advance th 20;
      Thread.yield th;
      decr inside;
      Lock.release l th
    done
  in
  let threads =
    Array.init 4 (fun i -> Thread.spawn e ~name:(Printf.sprintf "w%d" i) body)
  in
  Engine.run e;
  Array.iter (fun th -> check_bool "finished" true (Thread.finished th)) threads;
  check_int "never two holders" 1 !max_inside;
  check_int "all critical sections ran" 20 !total;
  check_int "acquires counted" 20 (Lock.acquires l);
  check_bool "some contention" true (Lock.contended_acquires l > 0)

let test_lock_uncontended_cost () =
  let e = Engine.create () in
  let l = Lock.create e ~uncontended_cost:2 ~transfer_cost:11 () in
  let th =
    Thread.spawn e ~name:"t" (fun th ->
        Lock.acquire l th;
        Lock.release l th)
  in
  Engine.run e;
  check_int "uncontended costs 2" 2 (Thread.clock th)

let test_lock_release_without_hold () =
  let e = Engine.create () in
  let l = Lock.create e () in
  let _th =
    Thread.spawn e ~name:"t" (fun th ->
        try
          Lock.release l th;
          Alcotest.fail "release without hold must raise"
        with Invalid_argument _ -> ())
  in
  Engine.run e

let test_lock_with_lock_releases_on_exn () =
  let e = Engine.create () in
  let l = Lock.create e () in
  let second_got_lock = ref false in
  let _t1 =
    Thread.spawn e ~name:"t1" (fun th ->
        try Lock.with_lock l th (fun () -> failwith "boom") with Failure _ -> ())
  in
  let _t2 =
    Thread.spawn e ~name:"t2" (fun th ->
        Thread.advance th 100;
        Thread.yield th;
        Lock.with_lock l th (fun () -> second_got_lock := true))
  in
  Engine.run e;
  check_bool "lock released after exception" true !second_got_lock

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "after overflow" `Quick test_engine_after_overflow;
          Alcotest.test_case "rebase keeps FIFO" `Quick test_engine_rebase_fifo;
          Alcotest.test_case "rebase keeps FIFO (zero-salt tiebreak)" `Quick
            test_engine_rebase_fifo_tiebreak;
          Alcotest.test_case "rebase preserves nonzero salts" `Quick
            test_engine_rebase_preserves_salt;
          QCheck_alcotest.to_alcotest prop_engine_stable_order;
          Alcotest.test_case "hot path does not allocate" `Quick
            test_engine_hot_path_no_alloc;
        ] );
      ( "reserve",
        [
          Alcotest.test_case "claim keeps the FIFO position" `Quick
            test_reserve_claim_order;
          Alcotest.test_case "dead once a later key fires or is skipped to"
            `Quick test_reserve_dies;
          Alcotest.test_case "blocks the seq reset on drain" `Quick
            test_reserve_blocks_seq_reset;
          Alcotest.test_case "survives a rebase" `Quick
            test_reserve_survives_rebase;
          Alcotest.test_case "refused under run_until, step and a perturber"
            `Quick test_reserve_refused;
          Alcotest.test_case "run ends at the latest reservation" `Quick
            test_reserve_run_end;
          QCheck_alcotest.to_alcotest prop_reserve_parity;
        ] );
      ( "ctrl",
        [
          Alcotest.test_case "yields to an event due at its clock" `Quick
            test_ctrl_yields_to_due_event;
          Alcotest.test_case "waits for a future ready time" `Quick
            test_ctrl_waits_for_ready_time;
          Alcotest.test_case "a post after an idle yield claims" `Quick
            test_ctrl_claims_after_idle_yield;
        ] );
      ( "thread",
        [
          Alcotest.test_case "lifecycle" `Quick test_thread_basic_lifecycle;
          Alcotest.test_case "suspend/resume value" `Quick
            test_thread_suspend_resume_value;
          Alcotest.test_case "wake sets clock" `Quick test_thread_wake_sets_clock;
          Alcotest.test_case "unpark on idle slot names the state" `Quick
            test_thread_unpark_idle_rejected;
          Alcotest.test_case "wake twice rejected" `Quick
            test_thread_wake_twice_rejected;
          Alcotest.test_case "wake before registration returns" `Quick
            test_thread_wake_before_registration_returns;
          Alcotest.test_case "wake during registration keeps FIFO order"
            `Quick test_thread_wake_during_registration_ordering;
          Alcotest.test_case "double fire in registration rejected" `Quick
            test_thread_double_fire_in_registration;
          Alcotest.test_case "exception wrapped" `Quick
            test_thread_exception_wrapped;
          Alcotest.test_case "quantum interleaving" `Quick
            test_thread_maybe_yield_interleaves;
          Alcotest.test_case "set_clock" `Quick test_thread_set_clock;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "releases all at max+latency" `Quick
            test_barrier_releases_all_at_max;
          Alcotest.test_case "reusable" `Quick test_barrier_reusable;
          Alcotest.test_case "single participant" `Quick
            test_barrier_single_participant;
        ] );
      ( "lock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "uncontended cost" `Quick test_lock_uncontended_cost;
          Alcotest.test_case "release without hold" `Quick
            test_lock_release_without_hold;
          Alcotest.test_case "with_lock releases on exception" `Quick
            test_lock_with_lock_releases_on_exn;
        ] );
    ]
