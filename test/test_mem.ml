(* Tests for the memory substrate: address arithmetic, tags, paged memory,
   the shared heap's page-home map, translation caches. *)

module Addr = Tt_mem.Addr
module Tag = Tt_mem.Tag
module Pagemem = Tt_mem.Pagemem
module Tlb = Tt_mem.Tlb
module Homes = Tt_mem.Homes

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ---------------- Addr ---------------- *)

let test_addr_constants () =
  check_int "page size" 4096 Addr.page_size;
  check_int "block size" 32 Addr.block_size;
  check_int "blocks per page" 128 Addr.blocks_per_page;
  check_int "word size" 8 Addr.word_size

let test_addr_arithmetic () =
  let a = (7 * Addr.page_size) + 1234 in
  check_int "page_of" 7 (Addr.page_of a);
  check_int "page_base" (7 * Addr.page_size) (Addr.page_base a);
  check_int "page_offset" 1234 (Addr.page_offset a);
  check_int "block_index" (1234 / 32) (Addr.block_index a);
  check_int "block_base" ((7 * Addr.page_size) + (1234 / 32 * 32))
    (Addr.block_base a);
  check_int "block_addr roundtrip" (Addr.block_base a)
    (Addr.block_addr ~page:7 ~index:(Addr.block_index a))

let prop_addr_decompose =
  QCheck.Test.make ~name:"page/offset decomposition reconstructs" ~count:1000
    QCheck.(int_range 0 100_000_000)
    (fun a ->
      (Addr.page_of a * Addr.page_size) + Addr.page_offset a = a
      && (Addr.block_of a * Addr.block_size) + Addr.block_offset a = a
      && Addr.block_index a >= 0
      && Addr.block_index a < Addr.blocks_per_page)

let test_addr_alignment () =
  check_bool "word aligned" true (Addr.is_word_aligned 16);
  check_bool "not word aligned" false (Addr.is_word_aligned 12);
  check_bool "block aligned" true (Addr.is_block_aligned 64);
  check_bool "not block aligned" false (Addr.is_block_aligned 65);
  check_bool "page aligned" true (Addr.is_page_aligned 8192);
  check_bool "not page aligned" false (Addr.is_page_aligned 8190)

(* ---------------- Tag ---------------- *)

let test_tag_permits () =
  check_bool "RW load" true (Tag.permits Tag.Read_write Tag.Load);
  check_bool "RW store" true (Tag.permits Tag.Read_write Tag.Store);
  check_bool "RO load" true (Tag.permits Tag.Read_only Tag.Load);
  check_bool "RO store" false (Tag.permits Tag.Read_only Tag.Store);
  check_bool "Invalid load" false (Tag.permits Tag.Invalid Tag.Load);
  check_bool "Invalid store" false (Tag.permits Tag.Invalid Tag.Store);
  check_bool "Busy load" false (Tag.permits Tag.Busy Tag.Load);
  check_bool "Busy store" false (Tag.permits Tag.Busy Tag.Store)

let test_tag_bits_roundtrip () =
  List.iter
    (fun t ->
      check_bool
        ("roundtrip " ^ Tag.to_string t)
        true
        (Tag.equal t (Tag.of_bits (Tag.to_bits t))))
    [ Tag.Read_write; Tag.Read_only; Tag.Invalid; Tag.Busy ];
  Alcotest.check_raises "bad bits" (Invalid_argument "Tag.of_bits: 4")
    (fun () -> ignore (Tag.of_bits 4))

(* ---------------- Pagemem ---------------- *)

let mk () = Pagemem.create ~node:3 ()

let test_pagemem_map_unmap () =
  let m = mk () in
  check_bool "not mapped" false (Pagemem.is_mapped m ~vpage:5);
  ignore (Pagemem.map m ~vpage:5 ~home:1 ~mode:2 ~init_tag:Tag.Read_write);
  check_bool "mapped" true (Pagemem.is_mapped m ~vpage:5);
  check_int "page count" 1 (Pagemem.page_count m);
  (try
     ignore (Pagemem.map m ~vpage:5 ~home:1 ~mode:2 ~init_tag:Tag.Read_write);
     Alcotest.fail "double map must raise"
   with Invalid_argument _ -> ());
  Pagemem.unmap m ~vpage:5;
  check_bool "unmapped" false (Pagemem.is_mapped m ~vpage:5);
  try
    Pagemem.unmap m ~vpage:5;
    Alcotest.fail "double unmap must raise"
  with Invalid_argument _ -> ()

let test_pagemem_word_roundtrips () =
  let m = mk () in
  ignore (Pagemem.map m ~vpage:1 ~home:0 ~mode:0 ~init_tag:Tag.Read_write);
  let va = (1 * Addr.page_size) + 64 in
  Pagemem.write_f64 m ~vaddr:va 3.14159;
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Pagemem.read_f64 m ~vaddr:va);
  Pagemem.write_i64 m ~vaddr:(va + 8) 0x1234_5678L;
  Alcotest.(check int64) "i64" 0x1234_5678L (Pagemem.read_i64 m ~vaddr:(va + 8));
  Pagemem.write_int m ~vaddr:(va + 16) (-42);
  check_int "int" (-42) (Pagemem.read_int m ~vaddr:(va + 16));
  Pagemem.write_u8 m ~vaddr:(va + 24) 200;
  check_int "u8" 200 (Pagemem.read_u8 m ~vaddr:(va + 24))

let test_pagemem_alignment_checked () =
  let m = mk () in
  ignore (Pagemem.map m ~vpage:1 ~home:0 ~mode:0 ~init_tag:Tag.Read_write);
  try
    ignore (Pagemem.read_f64 m ~vaddr:((1 * Addr.page_size) + 3));
    Alcotest.fail "unaligned read must raise"
  with Invalid_argument _ -> ()

let test_pagemem_unmapped_access () =
  let m = mk () in
  try
    ignore (Pagemem.read_f64 m ~vaddr:(9 * Addr.page_size));
    Alcotest.fail "unmapped access must raise"
  with Invalid_argument _ -> ()

let test_pagemem_block_ops () =
  let m = mk () in
  ignore (Pagemem.map m ~vpage:2 ~home:0 ~mode:0 ~init_tag:Tag.Read_write);
  let va = (2 * Addr.page_size) + (5 * Addr.block_size) in
  let block = Bytes.init Addr.block_size (fun i -> Char.chr (i + 1)) in
  Pagemem.write_block m ~vaddr:(va + 7 (* any addr within the block *)) block;
  Alcotest.(check bytes) "block roundtrip" block (Pagemem.read_block m ~vaddr:va);
  (* word view agrees with byte view *)
  check_int "byte 0" 1 (Pagemem.read_u8 m ~vaddr:va);
  try
    Pagemem.write_block m ~vaddr:va (Bytes.create 16);
    Alcotest.fail "short block must raise"
  with Invalid_argument _ -> ()

let test_pagemem_bytes_cross_page () =
  let m = mk () in
  ignore (Pagemem.map m ~vpage:1 ~home:0 ~mode:0 ~init_tag:Tag.Read_write);
  ignore (Pagemem.map m ~vpage:2 ~home:0 ~mode:0 ~init_tag:Tag.Read_write);
  let start = (2 * Addr.page_size) - 10 in
  let data = Bytes.init 20 (fun i -> Char.chr (65 + i)) in
  Pagemem.write_bytes m ~vaddr:start data;
  Alcotest.(check bytes) "cross-page roundtrip" data
    (Pagemem.read_bytes m ~vaddr:start ~len:20)

let test_pagemem_tags () =
  let m = mk () in
  let page = Pagemem.map m ~vpage:4 ~home:0 ~mode:1 ~init_tag:Tag.Invalid in
  let va = (4 * Addr.page_size) + (17 * Addr.block_size) in
  check_bool "init tag" true (Tag.equal Tag.Invalid (Pagemem.get_tag m ~vaddr:va));
  Pagemem.set_tag m ~vaddr:va Tag.Read_only;
  check_bool "set tag" true
    (Tag.equal Tag.Read_only (Pagemem.get_tag m ~vaddr:va));
  (* neighbouring block unaffected *)
  check_bool "neighbour untouched" true
    (Tag.equal Tag.Invalid (Pagemem.get_tag m ~vaddr:(va + Addr.block_size)));
  Pagemem.set_all_tags page Tag.Read_write;
  check_bool "set_all" true
    (Tag.equal Tag.Read_write (Pagemem.get_tag m ~vaddr:va))

let test_pagemem_user_info () =
  let m = mk () in
  let page = Pagemem.map m ~vpage:9 ~home:2 ~mode:3 ~init_tag:Tag.Read_write in
  check_int "home" 2 page.Pagemem.home;
  check_int "mode" 3 page.Pagemem.mode;
  check_bool "default user info" true (page.Pagemem.user = Pagemem.No_info)

(* The dense page index agrees with an Inttbl model on every query: vpages
   around the first mapped page, below it, far above it (outside the dense
   window), and re-mapped after an unmap.  [iter_pages] keeps the table's
   order. *)
let prop_pagemem_dense_index =
  let base = 0x10000 in
  let vpage =
    QCheck.Gen.(
      frequency
        [ (6, map (fun d -> base + d) (int_range 0 40));
          (2, map (fun d -> base - d) (int_range 1 20));
          (2, map (fun d -> base + (1 lsl 20) + d) (int_range 0 5)) ])
  in
  let op =
    QCheck.Gen.(
      pair (frequency [ (3, return `Map); (2, return `Unmap); (3, return `Query) ])
        vpage)
  in
  QCheck.Test.make ~name:"dense page index agrees with an Inttbl model"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 80) op))
    (fun ops ->
      let m = mk () in
      let model = Tt_util.Inttbl.create 256 in
      let agrees vp =
        let expect = Tt_util.Inttbl.find_or model vp ~default:Pagemem.no_page in
        Pagemem.lookup m ~vpage:vp == expect
        && Pagemem.is_mapped m ~vpage:vp = (expect != Pagemem.no_page)
        && (match Pagemem.find_page m ~vpage:vp with
           | Some p -> p == expect
           | None -> expect == Pagemem.no_page)
      in
      List.for_all
        (fun (op, vp) ->
          (match op with
          | `Map when not (Tt_util.Inttbl.mem model vp) ->
              Tt_util.Inttbl.replace model vp
                (Pagemem.map m ~vpage:vp ~home:0 ~mode:0 ~init_tag:Tag.Invalid)
          | `Unmap when Tt_util.Inttbl.mem model vp ->
              Pagemem.unmap m ~vpage:vp;
              Tt_util.Inttbl.remove model vp
          | `Map | `Unmap | `Query -> ());
          (* drop the MRU slot so the query reaches the index *)
          Pagemem.invalidate_translation m;
          agrees vp && agrees (vp + 1) && agrees (vp - 1))
        ops
      &&
      let pages = ref [] and expected = ref [] in
      Pagemem.iter_pages m (fun vp p -> pages := (vp, p) :: !pages);
      Tt_util.Inttbl.iter (fun vp p -> expected := (vp, p) :: !expected) model;
      List.length !pages = List.length !expected
      && List.for_all2 (fun (a, p) (b, q) -> a = b && p == q) !pages !expected)

(* ---------------- Tlb ---------------- *)

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:4 ~miss_penalty:25 () in
  check_int "first access misses" 25 (Tlb.access t 7);
  check_int "second access hits" 0 (Tlb.access t 7);
  check_int "hits" 1 (Tlb.hits t);
  check_int "misses" 1 (Tlb.misses t)

let test_tlb_fifo_eviction () =
  let t = Tlb.create ~entries:2 ~miss_penalty:10 () in
  ignore (Tlb.access t 1);
  ignore (Tlb.access t 2);
  (* touching 1 again does NOT refresh FIFO position *)
  check_int "1 still hits" 0 (Tlb.access t 1);
  ignore (Tlb.access t 3);
  (* 1 was inserted first, so it is the FIFO victim despite the recent hit *)
  check_bool "1 evicted" false (Tlb.probe t 1);
  check_bool "2 survives" true (Tlb.probe t 2);
  check_bool "3 present" true (Tlb.probe t 3)

let test_tlb_flush () =
  let t = Tlb.create ~entries:8 ~miss_penalty:25 () in
  ignore (Tlb.access t 5);
  Tlb.flush_entry t 5;
  check_int "flushed entry misses" 25 (Tlb.access t 5);
  Tlb.flush_all t;
  check_int "flush_all misses" 25 (Tlb.access t 5)

let test_tlb_stale_queue_entries () =
  (* flushing then re-filling must not confuse FIFO accounting *)
  let t = Tlb.create ~entries:2 ~miss_penalty:1 () in
  ignore (Tlb.access t 1);
  ignore (Tlb.access t 2);
  Tlb.flush_entry t 1;
  ignore (Tlb.access t 3);
  (* capacity is 2; present should be {2,3} *)
  check_bool "2 present" true (Tlb.probe t 2);
  check_bool "3 present" true (Tlb.probe t 3)

(* A key flushed then refilled is queued twice; its older entry evicts
   the key when it reaches the head, even though the key was refilled
   since, and a younger key survives. *)
let test_tlb_refill_evicted_by_older_entry () =
  let t = Tlb.create ~entries:2 ~miss_penalty:1 () in
  ignore (Tlb.access t 1);
  Tlb.flush_entry t 1;
  List.iter (fun k -> ignore (Tlb.access t k)) [ 1; 2; 3 ];
  (* 3's miss popped 1's first entry: present {2,3}, queue [1; 2; 3] *)
  Tlb.flush_entry t 2;
  ignore (Tlb.access t 1);
  ignore (Tlb.access t 4);
  check_bool "1 evicted by its older entry" false (Tlb.probe t 1);
  check_bool "3 survives" true (Tlb.probe t 3);
  check_bool "4 present" true (Tlb.probe t 4)

(* The hash-table-and-queue TLB the open-addressed one replaced, kept as
   the reference: a present set, and a FIFO of inserted keys that keeps
   flushed keys until eviction pops and skips them. *)
module Ref_tlb = struct
  type t = {
    entries : int;
    miss_penalty : int;
    present : unit Tt_util.Inttbl.t;
    order : int Queue.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~entries ~miss_penalty =
    { entries; miss_penalty; present = Tt_util.Inttbl.create 128;
      order = Queue.create (); hits = 0; misses = 0 }

  let probe t key = Tt_util.Inttbl.mem t.present key

  let rec evict_one t =
    match Queue.take_opt t.order with
    | None -> ()
    | Some victim ->
        if Tt_util.Inttbl.mem t.present victim then
          Tt_util.Inttbl.remove t.present victim
        else evict_one t

  let access t key =
    if probe t key then begin
      t.hits <- t.hits + 1;
      0
    end
    else begin
      t.misses <- t.misses + 1;
      if Tt_util.Inttbl.length t.present >= t.entries then evict_one t;
      Tt_util.Inttbl.replace t.present key ();
      Queue.add key t.order;
      t.miss_penalty
    end

  let flush_entry t key = Tt_util.Inttbl.remove t.present key

  let flush_all t =
    Tt_util.Inttbl.reset t.present;
    Queue.clear t.order
end

type tlb_op = Access of int | Flush of int | Flush_all

(* Keys fall in four clusters 2^17 pages apart, each straddling a
   multiple of 2^17: under a low-bits first slot every cluster would start
   its probe chains in the same slots and run them across the end of the
   table.  The clusters
   together hold a few more keys than the TLB, so evictions, and refills
   of flushed keys whose stale queue entries are still waiting, are
   frequent. *)
let tlb_key c off = ((c + 1) lsl 17) + off - 4

let gen_tlb_op ~span =
  let open QCheck.Gen in
  let key = map2 tlb_key (int_bound 3) (int_bound (span - 1)) in
  frequency
    [ (12, map (fun k -> Access k) key); (4, map (fun k -> Flush k) key);
      (1, return Flush_all) ]

let print_tlb_op = function
  | Access k -> Printf.sprintf "access %d" k
  | Flush k -> Printf.sprintf "flush %d" k
  | Flush_all -> "flush_all"

let prop_tlb_matches_reference entries =
  let span = 2 + ((entries + 3) / 4) in
  QCheck.Test.make ~count:500
    ~name:(Printf.sprintf "TLB matches the queue model at %d entries" entries)
    QCheck.(make ~print:(Print.list print_tlb_op)
              Gen.(list_size (int_range 1 400) (gen_tlb_op ~span)))
    (fun ops ->
      let t = Tlb.create ~entries ~miss_penalty:25 () in
      let r = Ref_tlb.create ~entries ~miss_penalty:25 in
      let same_probes () =
        List.for_all
          (fun k -> Tlb.probe t k = Ref_tlb.probe r k)
          (List.concat_map
             (fun c -> List.init span (tlb_key c))
             [ 0; 1; 2; 3 ])
      in
      List.for_all
        (fun op ->
          let penalties_agree =
            match op with
            | Access k -> Tlb.access t k = Ref_tlb.access r k
            | Flush k ->
                Tlb.flush_entry t k;
                Ref_tlb.flush_entry r k;
                true
            | Flush_all ->
                Tlb.flush_all t;
                Ref_tlb.flush_all r;
                true
          in
          penalties_agree
          && Tlb.hits t = r.Ref_tlb.hits
          && Tlb.misses t = r.Ref_tlb.misses
          && same_probes ())
        ops)

(* The FIFO contract in the fewest words: the present keys, and every
   inserted key oldest first, flushed ones kept until eviction pops and
   skips them. *)
module List_tlb = struct
  type t = {
    entries : int;
    mutable present : int list;
    mutable fifo : int list;
    mutable hits : int;
    mutable misses : int;
  }

  let create entries = { entries; present = []; fifo = []; hits = 0; misses = 0 }

  let probe t key = List.mem key t.present

  let flush_entry t key = t.present <- List.filter (( <> ) key) t.present

  let rec evict_one t =
    match t.fifo with
    | [] -> ()
    | victim :: rest ->
        t.fifo <- rest;
        if probe t victim then flush_entry t victim else evict_one t

  let access t key =
    if probe t key then begin
      t.hits <- t.hits + 1;
      0
    end
    else begin
      t.misses <- t.misses + 1;
      if List.length t.present >= t.entries then evict_one t;
      t.present <- key :: t.present;
      t.fifo <- t.fifo @ [ key ];
      25
    end

  let flush_all t =
    t.present <- [];
    t.fifo <- []
end

(* Keys [base + stride * i]: unit strides, powers of two up to 2^20 (all
   one low-bits slot apart, or in one slot) and an odd stride, so every
   hashed chain shape the table can build is met, eviction and refills of
   flushed keys included. *)
let prop_tlb_strided_matches_list_model entries =
  let span = entries + 3 in
  let cases =
    let open QCheck.Gen in
    let op =
      frequency
        [ (12, map (fun i -> Access i) (int_bound (span - 1)));
          (4, map (fun i -> Flush i) (int_bound (span - 1)));
          (1, return Flush_all) ]
    in
    triple
      (oneofl [ 1; 2; 3; 64; 128; 4096; 1 lsl 17; 1 lsl 20 ])
      (int_range 0 (1 lsl 24))
      (list_size (int_range 1 300) op)
  in
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "TLB over strided keys matches a list FIFO at %d entries"
         entries)
    QCheck.(
      make
        ~print:(fun (stride, base, ops) ->
          Printf.sprintf "stride %d base %d: %s" stride base
            (Print.list print_tlb_op ops))
        cases)
    (fun (stride, base, ops) ->
      let key i = base + (stride * i) in
      let t = Tlb.create ~entries ~miss_penalty:25 () in
      let m = List_tlb.create entries in
      List.for_all
        (fun op ->
          let penalties_agree =
            match op with
            | Access i -> Tlb.access t (key i) = List_tlb.access m (key i)
            | Flush i ->
                Tlb.flush_entry t (key i);
                List_tlb.flush_entry m (key i);
                true
            | Flush_all ->
                Tlb.flush_all t;
                List_tlb.flush_all m;
                true
          in
          penalties_agree
          && Tlb.hits t = m.List_tlb.hits
          && Tlb.misses t = m.List_tlb.misses
          && List.for_all
               (fun i -> Tlb.probe t (key i) = List_tlb.probe m (key i))
               (List.init span Fun.id))
        ops)

(* ---------------- Homes ---------------- *)

let raises f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* allocate with no machine behind the map, recording what [place] saw *)
let homes_alloc h ?home ?(align = 8) bytes =
  let placed = ref [] in
  let va =
    Homes.alloc h ~home ~align ~bytes ~place:(fun ~vpage ~home ->
        placed := (vpage, home) :: !placed)
  in
  (va, List.rev !placed)

let test_homes_alignment () =
  let h = Homes.create ~nodes:4 in
  let a, _ = homes_alloc h 8 in
  check_int "first address is the heap base" Homes.heap_base a;
  let b, placed = homes_alloc h ~align:64 8 in
  check_int "rounded up to 64" (Homes.heap_base + 64) b;
  check_int "same page: nothing placed" 0 (List.length placed);
  let c, _ = homes_alloc h ~align:1 3 in
  check_int "align 1 bumps by the size" (b + 8) c;
  let d, _ = homes_alloc h ~align:4096 8 in
  check_bool "page aligned" true (Addr.is_page_aligned d)

let test_homes_pinned_skip () =
  let h = Homes.create ~nodes:4 in
  let a, placed = homes_alloc h 8 in
  Alcotest.(check (list (pair int int)))
    "round-robin first page on node 0" [ (Addr.page_of a, 0) ] placed;
  let b, _ = homes_alloc h ~home:0 8 in
  check_int "pinned to the page's own home: no skip" (a + 8) b;
  let c, placed = homes_alloc h ~home:2 8 in
  check_int "pinned elsewhere: a fresh page" (Addr.page_base a + Addr.page_size)
    c;
  Alcotest.(check (list (pair int int)))
    "the fresh page is homed on the pin" [ (Addr.page_of c, 2) ] placed;
  check_int "the skipped-from page keeps its home" 0
    (Homes.home h ~vpage:(Addr.page_of a))

let test_homes_round_robin () =
  let h = Homes.create ~nodes:3 in
  let a, placed = homes_alloc h (3 * Addr.page_size) in
  Alcotest.(check (list (pair int int)))
    "three pages on nodes 0, 1, 2"
    [ (Addr.page_of a, 0); (Addr.page_of a + 1, 1); (Addr.page_of a + 2, 2) ]
    placed;
  let _, placed = homes_alloc h ~home:1 Addr.page_size in
  check_int "a pinned page does not advance the cursor" 1
    (List.length placed);
  let b, placed = homes_alloc h ~align:Addr.page_size 8 in
  Alcotest.(check (list (pair int int)))
    "the cursor wraps to node 0" [ (Addr.page_of b, 0) ] placed;
  Alcotest.(check (list (pair int int)))
    "bindings sorted by page"
    [ (Addr.page_of a, 0); (Addr.page_of a + 1, 1); (Addr.page_of a + 2, 2);
      (Addr.page_of a + 3, 1); (Addr.page_of b, 0) ]
    (Homes.bindings h)

let test_homes_rehome_generation () =
  let h = Homes.create ~nodes:4 in
  let a, _ = homes_alloc h (2 * Addr.page_size) in
  let vpage = Addr.page_of a in
  check_int "no re-home yet" 0 (Homes.generation h);
  Homes.rehome h ~vpage ~home:3;
  check_int "moved" 3 (Homes.home h ~vpage);
  check_int "generation 1" 1 (Homes.generation h);
  Homes.rehome h ~vpage:(vpage + 1) ~home:3;
  check_int "generation 2" 2 (Homes.generation h);
  Homes.bind h ~vpage:(vpage + 7) ~home:2;
  check_int "a bind is not a re-home" 2 (Homes.generation h)

let test_homes_errors () =
  let h = Homes.create ~nodes:4 in
  let a, _ = homes_alloc h 8 in
  let vpage = Addr.page_of a in
  check_int "find on an unallocated page" (-1) (Homes.find h (vpage + 1));
  check_bool "home of an unallocated page" true
    (raises (fun () -> Homes.home h ~vpage:(vpage + 1)));
  check_bool "re-home of an unallocated page" true
    (raises (fun () -> Homes.rehome h ~vpage:(vpage + 1) ~home:0));
  check_bool "double map" true (raises (fun () -> Homes.bind h ~vpage ~home:1));
  check_bool "zero size" true (raises (fun () -> homes_alloc h 0));
  check_bool "alignment not a power of two" true
    (raises (fun () -> homes_alloc h ~align:24 8));
  check_int "a refused request moves nothing" (a + 8) (fst (homes_alloc h 8))

(* The same allocation script on both machines lands every allocation at
   the same address with the same page homes. *)
let prop_homes_machines_agree =
  let module Machine = Tt_harness.Machine in
  let nodes = 4 in
  let step =
    QCheck.(
      triple (int_range 1 10_000) (int_range 0 12) (option (int_range 0 3)))
  in
  QCheck.Test.make ~name:"dirnnb and stache allocate identically" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 12) step)
    (fun script ->
      let params = { Params.default with Params.nodes } in
      let run engine alloc home_of =
        let out = ref [] in
        ignore
          (Tt_sim.Thread.spawn engine ~name:"alloc" (fun th ->
               List.iter
                 (fun (bytes, align_log, home) ->
                   let va = alloc th ~home ~align:(1 lsl align_log) ~bytes in
                   let homes =
                     List.init
                       (Addr.page_of (va + bytes - 1) - Addr.page_of va + 1)
                       (fun i -> home_of ((Addr.page_of va + i) * Addr.page_size))
                   in
                   out := (va, homes) :: !out)
                 script));
        Tt_sim.Engine.run engine;
        List.rev !out
      in
      let dm, dsys = Machine.dirnnb_full params in
      let on_dirnnb =
        run dm.Machine.engine
          (fun th ~home ~align ~bytes ->
            Tt_dirnnb.System.alloc dsys ~th ~node:0 ?home ~align ~bytes ())
          (fun va -> Tt_dirnnb.System.page_home dsys ~vpage:(Addr.page_of va))
      in
      let sm, _, st = Machine.typhoon_stache_full params in
      let on_stache =
        run sm.Machine.engine
          (fun th ~home ~align ~bytes ->
            Tt_stache.Stache.alloc st ~th ~node:0 ?home ~align ~bytes ())
          (fun vaddr -> Tt_stache.Stache.home_of st ~vaddr)
      in
      List.length on_dirnnb = List.length script && on_dirnnb = on_stache)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ( "addr",
        [
          Alcotest.test_case "constants" `Quick test_addr_constants;
          Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic;
          Alcotest.test_case "alignment" `Quick test_addr_alignment;
          qc prop_addr_decompose;
        ] );
      ( "tag",
        [
          Alcotest.test_case "permits" `Quick test_tag_permits;
          Alcotest.test_case "bits roundtrip" `Quick test_tag_bits_roundtrip;
        ] );
      ( "pagemem",
        [
          Alcotest.test_case "map/unmap" `Quick test_pagemem_map_unmap;
          Alcotest.test_case "word roundtrips" `Quick test_pagemem_word_roundtrips;
          Alcotest.test_case "alignment checked" `Quick
            test_pagemem_alignment_checked;
          Alcotest.test_case "unmapped access" `Quick test_pagemem_unmapped_access;
          Alcotest.test_case "block ops" `Quick test_pagemem_block_ops;
          Alcotest.test_case "bytes across pages" `Quick
            test_pagemem_bytes_cross_page;
          Alcotest.test_case "tags" `Quick test_pagemem_tags;
          Alcotest.test_case "page metadata" `Quick test_pagemem_user_info;
          qc prop_pagemem_dense_index;
        ] );
      ( "homes",
        [
          Alcotest.test_case "alignment" `Quick test_homes_alignment;
          Alcotest.test_case "pinned home skips to a fresh page" `Quick
            test_homes_pinned_skip;
          Alcotest.test_case "round-robin placement" `Quick
            test_homes_round_robin;
          Alcotest.test_case "re-home bumps the generation" `Quick
            test_homes_rehome_generation;
          Alcotest.test_case "errors" `Quick test_homes_errors;
          qc prop_homes_machines_agree;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "FIFO eviction" `Quick test_tlb_fifo_eviction;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
          Alcotest.test_case "stale queue entries" `Quick
            test_tlb_stale_queue_entries;
          Alcotest.test_case "refill evicted by its older entry" `Quick
            test_tlb_refill_evicted_by_older_entry;
          qc (prop_tlb_matches_reference 1);
          qc (prop_tlb_matches_reference 2);
          qc (prop_tlb_matches_reference 64);
          qc (prop_tlb_strided_matches_list_model 1);
          qc (prop_tlb_strided_matches_list_model 8);
          qc (prop_tlb_strided_matches_list_model 64);
        ] );
    ]
