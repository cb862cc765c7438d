(* Buckets, sizes, insertion and resize follow Stdlib.Hashtbl exactly, so a
   table holding the same keys visits them in the same order.  Only the key
   type is fixed: hashing is inline arithmetic and equality is [=] on ints,
   with no [caml_hash]/[compare_val] calls and no functor indirection. *)

type 'a bucket =
  | Empty
  | Cons of { mutable key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  initial_size : int;
}

let m32 = 0xFFFF_FFFF

(* [Hashtbl.hash] on an int, i.e. [caml_hash] with seed 0: MurmurHash3's
   32-bit mix of the tagged word [2x+1], folded from 64 to 32 bits the way
   [caml_hash_mix_intnat] does, then the final avalanche and the 30-bit
   mask. *)
let hash x =
  let n = (((x lsl 1) lor 1) lxor (x asr 31) lxor (x asr 62)) land m32 in
  let d = (n * 0xcc9e2d51) land m32 in
  let d = ((d lsl 15) lor (d lsr 17)) land m32 in
  let h = (d * 0x1b873593) land m32 in
  let h = ((h lsl 13) lor (h lsr 19)) land m32 in
  let h = ((h * 5) + 0xe6546b64) land m32 in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land m32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land m32 in
  let h = h lxor (h lsr 16) in
  h land 0x3FFF_FFFF

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let length t = t.size

let clear t =
  if t.size > 0 then begin
    t.size <- 0;
    Array.fill t.data 0 (Array.length t.data) Empty
  end

let reset t =
  if Array.length t.data = t.initial_size then clear t
  else begin
    t.size <- 0;
    t.data <- Array.make t.initial_size Empty
  end

let index t key = hash key land (Array.length t.data - 1)

(* Relink every cell into [ndata], appending at each bucket's tail so
   relative order within a bucket is kept. *)
let resize t =
  let odata = t.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let ndata_tail = Array.make nsize Empty in
    t.data <- ndata;
    let rec insert_bucket = function
      | Empty -> ()
      | Cons { key; next; _ } as cell ->
          let nidx = index t key in
          (match ndata_tail.(nidx) with
          | Empty -> ndata.(nidx) <- cell
          | Cons tail -> tail.next <- cell);
          ndata_tail.(nidx) <- cell;
          insert_bucket next
    in
    for i = 0 to Array.length odata - 1 do
      insert_bucket odata.(i)
    done;
    for i = 0 to nsize - 1 do
      match ndata_tail.(i) with Empty -> () | Cons tail -> tail.next <- Empty
    done
  end

let add t key data =
  let i = index t key in
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  t.size <- t.size + 1;
  if t.size > Array.length t.data lsl 1 then resize t

let rec remove_bucket t i key prec = function
  | Empty -> ()
  | Cons { key = k; next; _ } as c ->
      if k = key then begin
        t.size <- t.size - 1;
        match prec with
        | Empty -> t.data.(i) <- next
        | Cons p -> p.next <- next
      end
      else remove_bucket t i key c next

let remove t key =
  let i = index t key in
  remove_bucket t i key Empty t.data.(i)

let rec find_bucket key = function
  | Empty -> raise Not_found
  | Cons { key = k; data; next } -> if k = key then data else find_bucket key next

let find t key = find_bucket key t.data.(index t key)

let rec find_opt_bucket key = function
  | Empty -> None
  | Cons { key = k; data; next } ->
      if k = key then Some data else find_opt_bucket key next

let find_opt t key = find_opt_bucket key t.data.(index t key)

let rec find_or_bucket key default = function
  | Empty -> default
  | Cons { key = k; data; next } ->
      if k = key then data else find_or_bucket key default next

let find_or t key ~default = find_or_bucket key default t.data.(index t key)

let rec mem_bucket key = function
  | Empty -> false
  | Cons { key = k; next; _ } -> k = key || mem_bucket key next

let mem t key = mem_bucket key t.data.(index t key)

(* [true] when [key] was absent (nothing replaced). *)
let rec replace_bucket key data = function
  | Empty -> true
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        false
      end
      else replace_bucket key data c.next

let replace t key data =
  let i = index t key in
  let l = t.data.(i) in
  if replace_bucket key data l then begin
    t.data.(i) <- Cons { key; data; next = l };
    t.size <- t.size + 1;
    if t.size > Array.length t.data lsl 1 then resize t
  end

let rec iter_bucket f = function
  | Empty -> ()
  | Cons { key; data; next } ->
      f key data;
      iter_bucket f next

let iter f t =
  let d = t.data in
  for i = 0 to Array.length d - 1 do
    iter_bucket f d.(i)
  done

let rec fold_bucket f b acc =
  match b with
  | Empty -> acc
  | Cons { key; data; next } -> fold_bucket f next (f key data acc)

let fold f t init =
  let d = t.data in
  let acc = ref init in
  for i = 0 to Array.length d - 1 do
    acc := fold_bucket f d.(i) !acc
  done;
  !acc

let to_seq t =
  let d = t.data in
  let rec aux i b () =
    match b with
    | Empty -> if i = Array.length d then Seq.Nil else aux (i + 1) d.(i) ()
    | Cons { key; data; next } -> Seq.Cons ((key, data), aux i next)
  in
  aux 0 Empty
