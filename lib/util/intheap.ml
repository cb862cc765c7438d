(* The heap proper holds only ints: [keys] and [slots] are parallel arrays
   in heap order, and [slots.(i)] names the [slab] cell holding entry [i]'s
   payload.  Sifting therefore moves ints and never touches a boxed value,
   so the write barrier runs once per push (storing the payload) and once
   per pop (clearing it) instead of once per level.

   Free slab cells form a stack in [free.(0 .. cap - size - 1)]: every cell
   is either live (named by exactly one [slots] entry) or on the stack. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array; (* valid in [0, size) *)
  mutable slots : int array; (* valid in [0, size) *)
  mutable slab : 'a array; (* cap cells; free ones hold [dummy] *)
  mutable free : int array; (* valid in [0, cap - size) *)
  mutable size : int;
}

let create ?(capacity = 256) ~dummy () =
  let cap = max capacity 1 in
  { dummy; keys = Array.make cap 0; slots = Array.make cap 0;
    slab = Array.make cap dummy; free = Array.init cap (fun i -> cap - 1 - i);
    size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Only called when full, so the free stack is empty and the new cells
   [cap, 2 cap) become the whole stack. *)
let grow t =
  let cap = Array.length t.keys in
  let ncap = cap * 2 in
  let nkeys = Array.make ncap 0 and nslots = Array.make ncap 0 in
  Array.blit t.keys 0 nkeys 0 t.size;
  Array.blit t.slots 0 nslots 0 t.size;
  let nslab = Array.make ncap t.dummy in
  Array.blit t.slab 0 nslab 0 cap;
  t.keys <- nkeys;
  t.slots <- nslots;
  t.slab <- nslab;
  t.free <- Array.init ncap (fun i -> if i < cap then ncap - 1 - i else 0)

(* Hole-based sifting: carry the inserted (key, slot) in locals and move
   only the displaced entries, one int write pair per level. *)
let push t key v =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and slots = t.slots in
  let cap = Array.length keys in
  let slot = Array.unsafe_get t.free (cap - t.size - 1) in
  Array.unsafe_set t.slab slot v;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if Array.unsafe_get keys parent > key then begin
      Array.unsafe_set keys !i (Array.unsafe_get keys parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set slots !i slot

let min_key t =
  if t.size = 0 then invalid_arg "Intheap.min_key: empty heap";
  Array.unsafe_get t.keys 0

let pop_exn t =
  if t.size = 0 then invalid_arg "Intheap.pop_exn: empty heap";
  let keys = t.keys and slots = t.slots in
  let top_slot = Array.unsafe_get slots 0 in
  let top = Array.unsafe_get t.slab top_slot in
  Array.unsafe_set t.slab top_slot t.dummy (* drop the payload reference *);
  let n = t.size - 1 in
  t.size <- n;
  Array.unsafe_set t.free (Array.length keys - n - 1) top_slot;
  if n > 0 then begin
    let key = Array.unsafe_get keys n and slot = Array.unsafe_get slots n in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && Array.unsafe_get keys r < Array.unsafe_get keys l then r
          else l
        in
        if Array.unsafe_get keys c < key then begin
          Array.unsafe_set keys !i (Array.unsafe_get keys c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set slots !i slot
  end;
  top

let clear t =
  for i = 0 to t.size - 1 do
    Array.unsafe_set t.slab (Array.unsafe_get t.slots i) t.dummy
  done;
  let cap = Array.length t.keys in
  for i = 0 to cap - 1 do
    Array.unsafe_set t.free i (cap - 1 - i)
  done;
  t.size <- 0
