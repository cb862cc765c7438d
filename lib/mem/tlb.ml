type t = {
  entries : int;
  miss_penalty : int;
  present : unit Tt_util.Inttbl.t;
  order : int Queue.t; (* FIFO of inserted keys; may contain flushed keys *)
  (* exact memo of the last key seen present: access streams repeat the
     same page, and FIFO hits change no state, so a repeat hit needs no
     table probe.  Cleared whenever that key leaves [present]. *)
  mutable last : int;
  mutable last_ok : bool;
  mutable hits : int;
  mutable misses : int;
}

let create ?(entries = 64) ~miss_penalty () =
  { entries; miss_penalty; present = Tt_util.Inttbl.create 128;
    order = Queue.create (); last = 0; last_ok = false; hits = 0; misses = 0 }

let probe t key =
  (t.last_ok && key = t.last) || Tt_util.Inttbl.mem t.present key

let forget t key = if key = t.last then t.last_ok <- false

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some victim ->
      (* Stale queue entries (flushed pages) are skipped. *)
      if Tt_util.Inttbl.mem t.present victim then begin
        Tt_util.Inttbl.remove t.present victim;
        forget t victim
      end
      else evict_one t

let access t key =
  if probe t key then begin
    t.hits <- t.hits + 1;
    t.last <- key;
    t.last_ok <- true;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    if Tt_util.Inttbl.length t.present >= t.entries then evict_one t;
    Tt_util.Inttbl.replace t.present key ();
    Queue.add key t.order;
    t.last <- key;
    t.last_ok <- true;
    t.miss_penalty
  end

let flush_entry t key =
  Tt_util.Inttbl.remove t.present key;
  forget t key

let flush_all t =
  Tt_util.Inttbl.reset t.present;
  Queue.clear t.order;
  t.last_ok <- false

let hits t = t.hits

let misses t = t.misses
