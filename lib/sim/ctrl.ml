module Ring = struct
  (* parallel (time, item) arrays with power-of-two capacity: no
     allocation once grown *)
  type 'a t = {
    mutable times : int array;
    mutable items : 'a array;
    mutable head : int;
    mutable count : int;
    dummy : 'a;
  }

  let create dummy = { times = [||]; items = [||]; head = 0; count = 0; dummy }

  let length r = r.count

  let grow r =
    let cap = Array.length r.items in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let items = Array.make ncap r.dummy and times = Array.make ncap 0 in
    for i = 0 to r.count - 1 do
      let j = (r.head + i) land (cap - 1) in
      items.(i) <- r.items.(j);
      times.(i) <- r.times.(j)
    done;
    r.items <- items;
    r.times <- times;
    r.head <- 0

  let push r ~at x =
    if r.count = Array.length r.items then grow r;
    let i = (r.head + r.count) land (Array.length r.items - 1) in
    r.times.(i) <- at;
    r.items.(i) <- x;
    r.count <- r.count + 1

  let ready r clock = r.count > 0 && r.times.(r.head) <= clock

  let next r = if r.count > 0 then r.times.(r.head) else max_int

  let pop r =
    let x = r.items.(r.head) in
    r.items.(r.head) <- r.dummy;
    r.head <- (r.head + 1) land (Array.length r.items - 1);
    r.count <- r.count - 1;
    x
end

type t = {
  engine : Engine.t;
  mutable clock : int;
  mutable busy : bool;
  mutable self : unit -> unit; (* the one preallocated dispatch closure *)
  resv : Engine.reservation; (* a trailing yield's held place *)
  mutable handled : int;
  mutable busy_cycles : int;
}

let clock t = t.clock

let set_clock t c = t.clock <- c

let charge t n = t.clock <- t.clock + n

let handled t = t.handled

let busy_cycles t = t.busy_cycles

(* Strict inequality: an engine event already queued at the clock would
   fire before a freshly scheduled dispatch (smaller seq), so the loop must
   yield to it.  A yield with nothing queued reserves the place of a
   dispatch that would only mark the controller idle, for [kick] to claim
   (DESIGN.md, "Reserved dispatches").  A loop rather than a recursion, so
   that it inlines into the owner's dispatch closure. *)
let[@inline] run t q ~serve ~depth =
  let draining = ref true in
  while !draining do
    let start = t.clock in
    let next = serve q start in
    if next <= start then begin
      t.handled <- t.handled + 1;
      t.busy_cycles <- t.busy_cycles + (t.clock - start);
      if Engine.next_event_time t.engine > t.clock then
        Engine.skip_to t.engine t.clock
      else begin
        draining := false;
        if depth q = 0 && Engine.reserve t.engine t.resv t.clock then
          t.busy <- false
        else Engine.at t.engine t.clock t.self
      end
    end
    else begin
      draining := false;
      if next = max_int then t.busy <- false
      else begin
        (* nothing ready yet: idle until the earliest queued ready time *)
        t.clock <- next;
        Engine.at t.engine next t.self
      end
    end
  done

let create engine =
  { engine; clock = 0; busy = false;
    self = (fun () -> invalid_arg "Ctrl: dispatch not installed");
    resv = Engine.reservation engine; handled = 0; busy_cycles = 0 }

let install t dispatch = t.self <- dispatch

let kick t =
  if not t.busy then begin
    t.busy <- true;
    if not (Engine.claim t.engine t.resv t.self) then begin
      t.clock <- max t.clock (Engine.now t.engine);
      Engine.at t.engine t.clock t.self
    end
  end
