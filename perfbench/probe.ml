(* Host-time attribution and operation counts, taken from outside the
   simulator: around each [Env] operation, at engine event boundaries
   ([Engine.set_trace]) and around the harness calls the benchmark makes.

   Host time is charged to exactly one bucket at every instant of a timed
   phase, so the buckets' self times add up to the timed wall time by
   construction.  A span's self time is its duration minus the spans
   nested in it: an access that suspends stops being charged when the
   next engine event fires, so it excludes the other fibers' events.
   Counts are kept in both modes; the buckets only while [tracing]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- host speed ---

   On a shared host the speed of the same deterministic work drifts by
   tens of percent from one second to the next with other tenants' load.
   The yardstick is a fixed piece of plain OCaml work that uses none of the
   simulator's libraries: a hash-table loop (branchy, cache-resident) and
   a list loop (minor-heap allocation).  [host_speed ()] times it and
   returns [reference_ns] over its time, raised to [sensitivity].  A host
   time multiplied by the factor measured just before it is in seconds of
   a host on which the yardstick takes [reference_ns], about what it takes
   on a quiet 2 GHz Xeon core.  A change to the simulator cannot move the
   yardstick.

   The simulator's cells slow down more than the yardstick when the host
   is loaded: over minutes-long logs of all three workloads, log cell time
   rose about 1.2 times as fast as log yardstick time, and scaling with
   that exponent spread least from window to window. *)

let reference_ns = 2_000_000.0

let sensitivity = 1.2

let yard_table = Hashtbl.create 4096

let host_speed () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for r = 0 to 10 do
    for i = 0 to 2047 do
      Hashtbl.replace yard_table ((i * 7919) land 4095) (i + r)
    done;
    for i = 0 to 2047 do
      acc :=
        !acc
        + (try Hashtbl.find yard_table ((i * 31) land 4095)
           with Not_found -> 1)
    done
  done;
  for r = 0 to 15 do
    let l = List.init 1000 (fun i -> (i, r, float_of_int i)) in
    let l = List.map (fun (a, b, c) -> (b, a, c *. 2.0)) l in
    acc := !acc + List.fold_left (fun s (a, b, _) -> s + a + b) 0 l
  done;
  ignore (Sys.opaque_identity !acc);
  (reference_ns /. float_of_int (now_ns () - t0)) ** sensitivity

type bucket =
  | Access  (** shared loads and stores at the [Env] boundary *)
  | Sync  (** barriers, lock acquires and releases, incl. release flushes *)
  | Engine
      (** from an engine event's start until the next [Env] operation
          starts or ends: NP dispatch, handlers, fabric and the queue *)
  | Verify  (** oracle verify pass and invariant audit *)
  | Recovery  (** opaque [Recovery.run] per-app bundles *)
  | Other  (** app compute between operations and harness glue *)

let index = function
  | Access -> 0
  | Sync -> 1
  | Engine -> 2
  | Verify -> 3
  | Recovery -> 4
  | Other -> 5

(* slot 6 absorbs time outside timed phases (set-up, reporting) *)
let off = 6

let self_ns = Array.make 7 0

let cur = ref off

let last = ref 0

let tracing = ref false

let ops = ref 0

let syncs = ref 0

let events = ref 0

let charge_at t slot =
  self_ns.(!cur) <- self_ns.(!cur) + (t - !last);
  last := t;
  cur := slot

let switch b = charge_at (now_ns ()) (index b)

(* total duration of the timed phases *)
let wall_ns = ref 0

let reset () =
  Array.fill self_ns 0 (Array.length self_ns) 0;
  cur := off;
  last := now_ns ();
  wall_ns := 0;
  ops := 0;
  syncs := 0;
  events := 0

(* [timed b f] runs [f] as a timed phase whose own time is charged to [b]. *)
let timed b f =
  let t0 = now_ns () in
  if !tracing then charge_at t0 (index b);
  Fun.protect f ~finally:(fun () ->
      let t1 = now_ns () in
      if !tracing then charge_at t1 off;
      wall_ns := !wall_ns + (t1 - t0))

let on_event _key =
  incr events;
  switch Engine

let wrap (env : Tt_app.Env.t) : Tt_app.Env.t =
  if not !tracing then
    {
      env with
      read = (fun a -> incr ops; env.read a);
      write = (fun a v -> incr ops; env.write a v);
      read_int = (fun a -> incr ops; env.read_int a);
      write_int = (fun a v -> incr ops; env.write_int a v);
      barrier = (fun () -> incr syncs; env.barrier ());
      lock = (fun i -> incr syncs; env.lock i);
      unlock = (fun i -> incr syncs; env.unlock i);
    }
  else
    let access () = incr ops; switch Access in
    let sync () = incr syncs; switch Sync in
    let back () = switch Other in
    {
      env with
      read = (fun a -> access (); let v = env.read a in back (); v);
      write = (fun a v -> access (); env.write a v; back ());
      read_int = (fun a -> access (); let v = env.read_int a in back (); v);
      write_int = (fun a v -> access (); env.write_int a v; back ());
      barrier = (fun () -> sync (); env.barrier (); back ());
      lock = (fun i -> sync (); env.lock i; back ());
      unlock = (fun i -> sync (); env.unlock i; back ());
    }
