(* Conservative (lookahead-window) parallel discrete-event simulation
   across OCaml 5 domains.

   The machine model is a set of deterministic actors behind the
   Engine boundary, and every cross-actor interaction rides a
   network link with a fixed minimum latency.  That latency is *lookahead*
   in PDES terms: an event executing at time [t] can only affect another
   partition at [t + lookahead] or later.  So events in the half-open
   window [floor, floor + lookahead) are causally independent across
   partitions and may be drained concurrently.

   Each partition owns a private sequential {!Engine}; the group advances
   in window-sized epochs:

     1. every partition drains its inboxes — posts buffered before [run]
        or during the previous window — in a fixed (source-partition,
        FIFO) order, re-scheduling them into its own engine;
     2. a coordinator computes the next window floor — the minimum queued
        event time across all partitions, every handed-over event now
        visible — and checks termination;
     3. every partition drains its own queue through the window with
        [Engine.run_until]; cross-partition schedules made by its events
        are buffered in bounded SPSC {!Mailbox}es (one per directed
        partition pair) rather than touching the peer's engine.

   Because each engine's entire operation sequence — run_until horizon,
   then inbox pushes in deterministic order — is independent of how
   partitions are mapped onto domains, the packed (time, salt, seq) event
   keys each engine assigns and drains are bit-identical whether the group
   runs on one domain or many.  [Engine.set_trace] logs are the proof
   hook; test_parallel.ml's properties compare full logs across domain
   counts, and against the one-engine sequential oracle for
   state/timing equivalence.

   Synchronization is intentionally boring: a reusable phase-counting
   barrier built on Mutex/Condition.  All shared mutable fields ([floor],
   [stop], engine internals read by the coordinator) are written strictly
   on one side of a barrier and read on the other; the barrier's mutex
   establishes the happens-before edges, so no further atomics are needed
   (the SPSC mailboxes carry their own). *)

exception Mailbox_full of string

type post = { p_time : int; p_fn : unit -> unit }

let nop_post = { p_time = 0; p_fn = (fun () -> ()) }

type stop = Running | Drained | Hit_limit | Failed

type t = {
  lookahead : int;
  engines : Engine.t array;
  boxes : post Mailbox.t array array; (* boxes.(dst).(src); unused diagonal *)
  mutable floor : int; (* current window start *)
  mutable stop : stop;
  mutable epochs : int;
}

let create ?(mailbox_capacity = 8192) ~partitions ~lookahead () =
  if partitions <= 0 then
    invalid_arg "Domains.create: partitions must be positive";
  if lookahead <= 0 then invalid_arg "Domains.create: lookahead must be positive";
  if mailbox_capacity <= 0 then
    invalid_arg "Domains.create: mailbox_capacity must be positive";
  {
    lookahead;
    engines = Array.init partitions (fun _ -> Engine.create ());
    boxes =
      Array.init partitions (fun _ ->
          Array.init partitions (fun _ ->
              Mailbox.create ~capacity:mailbox_capacity ~dummy:nop_post ()));
    floor = 0;
    stop = Running;
    epochs = 0;
  }

let partitions t = Array.length t.engines

let engine t p = t.engines.(p)

let lookahead t = t.lookahead

let epochs t = t.epochs

let floor t = t.floor

let post t ~src ~dst time fn =
  if src = dst then Engine.at t.engines.(src) time fn
  else begin
    let now = Engine.now t.engines.(src) in
    if time < now + t.lookahead then
      invalid_arg
        (Printf.sprintf
           "Domains.post: time %d from partition %d (now=%d) violates the \
            lookahead window (now + %d)"
           time src now t.lookahead);
    if not (Mailbox.try_push t.boxes.(dst).(src) { p_time = time; p_fn = fn })
    then
      raise
        (Mailbox_full
           (Printf.sprintf
              "Domains.post: mailbox %d->%d full (capacity %d); raise \
               ~mailbox_capacity"
              src dst
              (Mailbox.capacity t.boxes.(dst).(src))))
  end

(* Window-edge inbox drain for partition [dst]: fixed source order, FIFO
   within a source, so the engine's seq assignment is deterministic. *)
let drain_inboxes t dst =
  let e = t.engines.(dst) in
  let row = t.boxes.(dst) in
  for src = 0 to Array.length row - 1 do
    if src <> dst then begin
      let box = row.(src) in
      while not (Mailbox.is_empty box) do
        let p = Mailbox.pop_exn box in
        Engine.at e p.p_time p.p_fn
      done
    end
  done

(* Reusable phase-counting barrier.  The arriving mutex section orders each
   party's pre-barrier writes before every party's post-barrier reads. *)
module Sync = struct
  type b = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let create parties =
    { m = Mutex.create (); c = Condition.create (); parties; count = 0;
      phase = 0 }

  let wait b =
    if b.parties > 1 then begin
      Mutex.lock b.m;
      let ph = b.phase in
      b.count <- b.count + 1;
      if b.count = b.parties then begin
        b.count <- 0;
        b.phase <- ph + 1;
        Condition.broadcast b.c
      end
      else
        while b.phase = ph do
          Condition.wait b.c b.m
        done;
      Mutex.unlock b.m
    end
end

(* One worker's share of every epoch.  Only steps that execute user events
   (window drain, inbox drain, the per-window callback) can raise; they are
   fenced so every worker keeps reaching the barriers and the coordinator
   shuts the group down at the next window edge instead of deadlocking. *)
let worker_loop t ~bar ~limit ~on_window ~failed ~errors ~idx ~is_coord
    ~my_parts =
  let guard f =
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      if errors.(idx) = None then errors.(idx) <- Some (e, bt);
      Atomic.set failed true
  in
  let continue = ref true in
  while !continue do
    (* inboxes first — they may hold posts made before [run] or during the
       previous window, and the floor/termination check below must see
       every handed-over event in its destination engine (a group whose
       only pending work sits in a mailbox is not drained) *)
    guard (fun () -> List.iter (drain_inboxes t) my_parts);
    Sync.wait bar;
    if is_coord then begin
      if Atomic.get failed then t.stop <- Failed
      else begin
        let f = ref max_int in
        Array.iter
          (fun e -> f := min !f (Engine.next_event_time e))
          t.engines;
        if !f = max_int then t.stop <- Drained
        else if !f > limit then t.stop <- Hit_limit
        else begin
          t.floor <- !f;
          guard (fun () -> on_window ~floor:!f ~epoch:t.epochs);
          if Atomic.get failed then t.stop <- Failed
        end
      end
    end;
    Sync.wait bar;
    match t.stop with
    | Drained | Hit_limit | Failed -> continue := false
    | Running ->
        let window_end = min (t.floor + t.lookahead - 1) limit in
        guard (fun () ->
            List.iter
              (fun p ->
                ignore (Engine.run_until t.engines.(p) ~limit:window_end))
              my_parts);
        Sync.wait bar;
        if is_coord then t.epochs <- t.epochs + 1
  done

let default_on_window ~floor:_ ~epoch:_ = ()

let run ?(domains = 1) ?(limit = max_int) ?(on_window = default_on_window) t =
  let p = partitions t in
  let d = max 1 (min domains p) in
  let failed = Atomic.make false in
  let errors = Array.make d None in
  t.stop <- Running;
  let bar = Sync.create d in
  (* partition p runs on worker (p mod d): a deterministic map, though any
     map yields the same engine logs — that is the point of the design *)
  let parts_of idx =
    List.init p Fun.id |> List.filter (fun q -> q mod d = idx)
  in
  let worker idx () =
    worker_loop t ~bar ~limit ~on_window ~failed ~errors ~idx
      ~is_coord:(idx = 0) ~my_parts:(parts_of idx)
  in
  let spawned = Array.init (d - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join spawned;
  (match Array.find_opt (fun e -> e <> None) errors with
  | Some (Some (e, bt)) -> Printexc.raise_with_backtrace e bt
  | _ -> ());
  t.stop = Drained

(* ------------------------------------------------------------------ *)
(* Generic deterministic fan-out over independent work items            *)
(* ------------------------------------------------------------------ *)

(* Used by the harness sweeps (scaling grids, fault grids, torture grids):
   every item is an independent sequential simulation, so running them on
   worker domains changes wall-clock only.  Results land by input index;
   on failure the earliest item's exception is re-raised, matching what a
   sequential left-to-right map would have surfaced. *)
let map ~domains f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if domains <= 1 || n <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
            errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let spawned =
      Array.init (min domains n - 1) (fun _ -> Domain.spawn work)
    in
    work ();
    Array.iter Domain.join spawned;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end
