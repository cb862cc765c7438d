(* The present set is an open-addressed table of keys, sized to twice the
   capacity so it is never more than half full: a key's first slot is a
   Fibonacci hash of it (see [home]), and a removal shifts its chain back
   instead of leaving a tombstone.
   [order] is the FIFO of inserted keys, a power-of-two int ring; it may
   hold flushed keys, and a key flushed then refilled appears twice, the
   older entry evicting the refill early. *)
type t = {
  entries : int;
  miss_penalty : int;
  slots : int array; (* keys, [empty] where free *)
  hash_shift : int; (* [Sys.int_size - log2 (Array.length slots)] *)
  mutable present : int;
  mutable order : int array;
  mutable head : int;
  mutable queued : int;
  mutable hits : int;
  mutable misses : int;
}

let empty = min_int

let create ?(entries = 64) ~miss_penalty () =
  let rec log2_slots bits =
    if 1 lsl bits >= 2 * max entries 1 then bits else log2_slots (bits + 1)
  in
  let bits = log2_slots 4 in
  { entries; miss_penalty; slots = Array.make (1 lsl bits) empty;
    hash_shift = Sys.int_size - bits; present = 0; order = Array.make 16 0;
    head = 0; queued = 0; hits = 0; misses = 0 }

(* A key's first slot: the top bits of key × 2^63/φ (Fibonacci hashing).
   Starting at the low bits instead lets clustered pages (and pages that
   share low bits) pile into long probe runs. *)
let home t key = (key * 0x4F1BBCDCBFA53E0B) lsr t.hash_shift

(* The slot holding [key], or the free slot that ends its chain.  Plain
   recursion over arguments, not a closure: a lookup allocates nothing. *)
let rec walk slots key i =
  let k = Array.unsafe_get slots i in
  if k = key || k = empty then i
  else walk slots key ((i + 1) land (Array.length slots - 1))

let slot t key = walk t.slots key (home t key)

let probe t key = t.slots.(slot t key) = key

(* Close the hole a removal leaves: each later key of the run that may not
   sit past the hole (its first slot is not cyclically in (hole, j]) moves
   back into it, leaving a new hole where it was. *)
let rec shift t hole j =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let k = slots.(j) in
  if k = empty then slots.(hole) <- empty
  else
    let h = home t k in
    if (hole - h) land mask < (j - h) land mask then begin
      slots.(hole) <- k;
      shift t j ((j + 1) land mask)
    end
    else shift t hole ((j + 1) land mask)

let remove t key =
  let i = slot t key in
  shift t i ((i + 1) land (Array.length t.slots - 1));
  t.present <- t.present - 1

let rec evict_one t =
  if t.queued > 0 then begin
    let victim = t.order.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.order - 1);
    t.queued <- t.queued - 1;
    (* Stale entries (flushed pages) are skipped. *)
    if probe t victim then remove t victim else evict_one t
  end

let push t key =
  let cap = Array.length t.order in
  if t.queued = cap then begin
    let order = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      order.(i) <- t.order.((t.head + i) land (cap - 1))
    done;
    t.order <- order;
    t.head <- 0
  end;
  t.order.((t.head + t.queued) land (Array.length t.order - 1)) <- key;
  t.queued <- t.queued + 1

let access t key =
  if probe t key then begin
    t.hits <- t.hits + 1;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    if t.present >= t.entries then evict_one t;
    t.slots.(slot t key) <- key;
    t.present <- t.present + 1;
    push t key;
    t.miss_penalty
  end

let flush_entry t key = if probe t key then remove t key

let flush_all t =
  Array.fill t.slots 0 (Array.length t.slots) empty;
  t.present <- 0;
  t.head <- 0;
  t.queued <- 0

let hits t = t.hits

let misses t = t.misses
