(* [cells.(k - base)] holds key [k]'s value, [absent] when unbound.  The
   window only grows, so a key refused once (holding it would stretch the
   window past [max_span]) is never inside a later window. *)

type 'a t = { absent : 'a; mutable base : int; mutable cells : 'a array }

let max_span = 1 lsl 16

let create ~absent = { absent; base = 0; cells = [||] }

let get t k =
  let i = k - t.base in
  if i >= 0 && i < Array.length t.cells then Array.unsafe_get t.cells i
  else t.absent

(* Widen the window to take in [k], at least doubling it so a growing key
   range is copied O(log n) times; [false] past [max_span]. *)
let cover t k =
  let len = Array.length t.cells in
  if len = 0 then t.base <- k;
  let lo = min t.base k and hi = max (t.base + len) (k + 1) in
  hi - lo <= max_span
  && begin
       let nlen = min max_span (max (hi - lo) (max 64 (2 * len))) in
       let nbase = if k < t.base then hi - nlen else lo in
       let cells = Array.make nlen t.absent in
       Array.blit t.cells 0 cells (t.base - nbase) len;
       t.base <- nbase;
       t.cells <- cells;
       true
     end

let set t k v =
  let i = k - t.base in
  ((i >= 0 && i < Array.length t.cells) || cover t k)
  && begin
       t.cells.(k - t.base) <- v;
       true
     end
