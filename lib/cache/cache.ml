type state = Shared | Exclusive

(* Lines live in flat parallel arrays rather than per-line records: [tags]
   holds the block number and [meta] one byte per line (0 = invalid,
   1 = Shared, 2 = Exclusive).  Line [w] of set [s] is slot [s * assoc + w].
   Construction is three allocations regardless of geometry, and a set scan
   touches adjacent bytes. *)

type t = {
  label : string;
  nsets : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  assoc : int;
  tags : int array; (* nsets * assoc *)
  meta : Bytes.t; (* nsets * assoc *)
  prng : Tt_util.Prng.t;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable evict_shared : int;
  mutable evict_exclusive : int;
}

let m_invalid = '\000'

let m_shared = '\001'

let m_exclusive = '\002'

let meta_of_state = function Shared -> m_shared | Exclusive -> m_exclusive

let state_of_meta = function
  | '\001' -> Shared
  | '\002' -> Exclusive
  | _ -> invalid_arg "Cache: invalid line"

let create ?(name = "cache") ~size_bytes ~assoc ~prng () =
  let block = Tt_mem.Addr.block_size in
  if size_bytes <= 0 || assoc <= 0 || size_bytes mod (assoc * block) <> 0 then
    invalid_arg "Cache.create: size must be a positive multiple of assoc*32";
  let nsets = size_bytes / (assoc * block) in
  let set_mask = if nsets land (nsets - 1) = 0 then nsets - 1 else -1 in
  { label = name; nsets; set_mask; assoc;
    tags = Array.make (nsets * assoc) 0;
    meta = Bytes.make (nsets * assoc) m_invalid;
    prng; hit_count = 0; miss_count = 0; evict_shared = 0; evict_exclusive = 0 }

let sets t = t.nsets

let name t = t.label

let base_of t block =
  (* the common power-of-two geometry indexes with a mask, not a division *)
  let index =
    if t.set_mask >= 0 then block land t.set_mask else block mod t.nsets
  in
  index * t.assoc

(* Slot of [block] if cached, else -1.  A plain loop: a local recursive
   function would allocate its closure on every call. *)
let find_slot t block =
  let base = base_of t block in
  let stop = base + t.assoc in
  let slot = ref base in
  while
    !slot < stop
    && (Bytes.unsafe_get t.meta !slot = m_invalid
       || Array.unsafe_get t.tags !slot <> block)
  do
    incr slot
  done;
  if !slot < stop then !slot else -1

(* Shared results, so a hit returns without allocating. *)
let some_shared = Some Shared

let some_exclusive = Some Exclusive

let some_state_of_meta = function
  | '\001' -> some_shared
  | '\002' -> some_exclusive
  | _ -> invalid_arg "Cache: invalid line"

let probe t ~block =
  let slot = find_slot t block in
  if slot < 0 then None else some_state_of_meta (Bytes.unsafe_get t.meta slot)

let lookup t ~block =
  let slot = find_slot t block in
  if slot < 0 then begin
    t.miss_count <- t.miss_count + 1;
    None
  end
  else begin
    t.hit_count <- t.hit_count + 1;
    some_state_of_meta (Bytes.unsafe_get t.meta slot)
  end

let insert t ~block ~state =
  let slot = find_slot t block in
  if slot >= 0 then begin
    Bytes.unsafe_set t.meta slot (meta_of_state state);
    None
  end
  else begin
    let base = base_of t block in
    let stop = base + t.assoc in
    let free = ref base in
    while !free < stop && Bytes.unsafe_get t.meta !free <> m_invalid do
      incr free
    done;
    let slot =
      if !free < stop then !free else base + Tt_util.Prng.int t.prng t.assoc
    in
    let evicted =
      match Bytes.unsafe_get t.meta slot with
      | '\000' -> None
      | m ->
          let st = state_of_meta m in
          (match st with
          | Shared -> t.evict_shared <- t.evict_shared + 1
          | Exclusive -> t.evict_exclusive <- t.evict_exclusive + 1);
          Some (Array.unsafe_get t.tags slot, st)
    in
    Array.unsafe_set t.tags slot block;
    Bytes.unsafe_set t.meta slot (meta_of_state state);
    evicted
  end

let set_state t ~block state =
  let slot = find_slot t block in
  if slot < 0 then invalid_arg "Cache.set_state: block not cached";
  Bytes.unsafe_set t.meta slot (meta_of_state state)

let invalidate t ~block =
  let slot = find_slot t block in
  if slot < 0 then false
  else begin
    Bytes.unsafe_set t.meta slot m_invalid;
    true
  end

let downgrade t ~block =
  let slot = find_slot t block in
  if slot >= 0 && Bytes.unsafe_get t.meta slot = m_exclusive then
    Bytes.unsafe_set t.meta slot m_shared

let iter t f =
  for slot = 0 to (t.nsets * t.assoc) - 1 do
    match Bytes.unsafe_get t.meta slot with
    | '\000' -> ()
    | m -> f (Array.unsafe_get t.tags slot) (state_of_meta m)
  done

let flush_page t ~vpage =
  let lo = vpage * Tt_mem.Addr.blocks_per_page in
  let hi = lo + Tt_mem.Addr.blocks_per_page - 1 in
  for slot = 0 to (t.nsets * t.assoc) - 1 do
    if Bytes.unsafe_get t.meta slot <> m_invalid then begin
      let tag = Array.unsafe_get t.tags slot in
      if tag >= lo && tag <= hi then Bytes.unsafe_set t.meta slot m_invalid
    end
  done

let occupancy t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let hits t = t.hit_count

let misses t = t.miss_count

let evictions_shared t = t.evict_shared

let evictions_exclusive t = t.evict_exclusive
