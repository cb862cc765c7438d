type user_info = ..

type user_info += No_info

type page = {
  data : Bytes.t;
  tags : Bytes.t;
  mutable mode : int;
  mutable home : int;
  mutable user : user_info;
}

type t = {
  node_id : int;
  pages : page Tt_util.Inttbl.t; (* the record: [iter_pages] walks it *)
  dense : page Tt_util.Dense.t; (* the same bindings, for the lookup *)
  (* 1-entry MRU translation cache: memory access streams are heavily
     same-page, so the common case skips the table entirely.  [mru_vpage]
     is a sentinel (-1) when invalid; [mru_page] then points at [no_page],
     which no vpage can reach. *)
  mutable mru_vpage : int;
  mutable mru_page : page;
}

let no_page =
  { data = Bytes.empty; tags = Bytes.empty; mode = -1; home = -1;
    user = No_info }

let create ~node () =
  { node_id = node; pages = Tt_util.Inttbl.create 256;
    dense = Tt_util.Dense.create ~absent:no_page; mru_vpage = -1;
    mru_page = no_page }

let node t = t.node_id

let page_count t = Tt_util.Inttbl.length t.pages

let is_mapped t ~vpage =
  vpage = t.mru_vpage
  || Tt_util.Dense.get t.dense vpage != no_page
  || Tt_util.Inttbl.mem t.pages vpage

let set_mru t vpage page =
  t.mru_vpage <- vpage;
  t.mru_page <- page

let clear_mru t =
  t.mru_vpage <- -1;
  t.mru_page <- no_page

let lookup t ~vpage =
  if vpage = t.mru_vpage then t.mru_page
  else begin
    let p = Tt_util.Dense.get t.dense vpage in
    let p =
      if p != no_page then p
      else Tt_util.Inttbl.find_or t.pages vpage ~default:no_page
    in
    if p != no_page then set_mru t vpage p;
    p
  end

let find_page t ~vpage =
  let p = lookup t ~vpage in
  if p == no_page then None else Some p

let get_page t ~vpage =
  let p = lookup t ~vpage in
  if p == no_page then
    invalid_arg
      (Printf.sprintf "Pagemem: node %d, vpage 0x%x is not mapped" t.node_id
         vpage);
  p

let set_all_tags page tag =
  Bytes.fill page.tags 0 (Bytes.length page.tags) (Char.chr (Tag.to_bits tag))

let map t ~vpage ~home ~mode ~init_tag =
  if is_mapped t ~vpage then
    invalid_arg
      (Printf.sprintf "Pagemem.map: node %d, vpage 0x%x already mapped"
         t.node_id vpage);
  let page =
    { data = Bytes.make Addr.page_size '\000';
      tags = Bytes.make Addr.blocks_per_page '\000';
      mode; home; user = No_info }
  in
  set_all_tags page init_tag;
  Tt_util.Inttbl.replace t.pages vpage page;
  ignore (Tt_util.Dense.set t.dense vpage page);
  (* a freshly mapped page is about to be accessed: warm the MRU slot *)
  set_mru t vpage page;
  page

let invalidate_translation t = clear_mru t

let translation_cached t ~vpage = vpage = t.mru_vpage

let unmap t ~vpage =
  if not (is_mapped t ~vpage) then
    invalid_arg
      (Printf.sprintf "Pagemem.unmap: node %d, vpage 0x%x not mapped" t.node_id
         vpage);
  if vpage = t.mru_vpage then clear_mru t;
  ignore (Tt_util.Dense.set t.dense vpage no_page);
  Tt_util.Inttbl.remove t.pages vpage

let iter_pages t f = Tt_util.Inttbl.iter f t.pages

let page_of_addr t vaddr = get_page t ~vpage:(Addr.page_of vaddr)

let page_tag page ~index = Tag.of_bits (Char.code (Bytes.get page.tags index))

let get_tag t ~vaddr =
  page_tag (page_of_addr t vaddr) ~index:(Addr.block_index vaddr)

let set_tag t ~vaddr tag =
  let page = page_of_addr t vaddr in
  Bytes.set page.tags (Addr.block_index vaddr) (Char.chr (Tag.to_bits tag))

let check_word_aligned vaddr =
  if not (Addr.is_word_aligned vaddr) then
    invalid_arg (Printf.sprintf "Pagemem: unaligned word access at 0x%x" vaddr)

(* An aligned word never straddles the page, so once [check_word_aligned]
   passes the offset is in bounds and the unchecked primitives apply; the
   typed readers below call them directly so the int64 stays unboxed. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word_get page off =
  if Sys.big_endian then swap64 (get64u page.data off) else get64u page.data off

let[@inline] word_set page off v =
  if Sys.big_endian then set64u page.data off (swap64 v)
  else set64u page.data off v

let read_i64 t ~vaddr =
  check_word_aligned vaddr;
  word_get (page_of_addr t vaddr) (Addr.page_offset vaddr)

let write_i64 t ~vaddr v =
  check_word_aligned vaddr;
  word_set (page_of_addr t vaddr) (Addr.page_offset vaddr) v

let read_f64 t ~vaddr =
  check_word_aligned vaddr;
  Int64.float_of_bits (word_get (page_of_addr t vaddr) (Addr.page_offset vaddr))

let write_f64 t ~vaddr v =
  check_word_aligned vaddr;
  word_set (page_of_addr t vaddr) (Addr.page_offset vaddr)
    (Int64.bits_of_float v)

let page_read_f64 page ~vaddr =
  check_word_aligned vaddr;
  Int64.float_of_bits (word_get page (Addr.page_offset vaddr))

let page_write_f64 page ~vaddr v =
  check_word_aligned vaddr;
  word_set page (Addr.page_offset vaddr) (Int64.bits_of_float v)

let page_read_int page ~vaddr =
  check_word_aligned vaddr;
  Int64.to_int (word_get page (Addr.page_offset vaddr))

let page_write_int page ~vaddr v =
  check_word_aligned vaddr;
  word_set page (Addr.page_offset vaddr) (Int64.of_int v)

let read_int t ~vaddr =
  check_word_aligned vaddr;
  Int64.to_int (word_get (page_of_addr t vaddr) (Addr.page_offset vaddr))

let write_int t ~vaddr v =
  check_word_aligned vaddr;
  word_set (page_of_addr t vaddr) (Addr.page_offset vaddr) (Int64.of_int v)

let read_u8 t ~vaddr =
  let page = page_of_addr t vaddr in
  Char.code (Bytes.get page.data (Addr.page_offset vaddr))

let write_u8 t ~vaddr v =
  let page = page_of_addr t vaddr in
  Bytes.set page.data (Addr.page_offset vaddr) (Char.chr (v land 0xff))

let read_block t ~vaddr =
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.sub page.data (Addr.page_offset base) Addr.block_size

let read_block_into t ~vaddr ~dst ~dst_pos =
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.blit page.data (Addr.page_offset base) dst dst_pos Addr.block_size

let write_block t ~vaddr src =
  if Bytes.length src <> Addr.block_size then
    invalid_arg "Pagemem.write_block: block must be 32 bytes";
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.blit src 0 page.data (Addr.page_offset base) Addr.block_size

let write_block_from t ~vaddr ~src ~src_pos =
  let base = Addr.block_base vaddr in
  let page = page_of_addr t base in
  Bytes.blit src src_pos page.data (Addr.page_offset base) Addr.block_size

let read_bytes t ~vaddr ~len =
  let out = Bytes.create len in
  let rec copy pos =
    if pos < len then begin
      let a = vaddr + pos in
      let page = page_of_addr t a in
      let off = Addr.page_offset a in
      let chunk = min (len - pos) (Addr.page_size - off) in
      Bytes.blit page.data off out pos chunk;
      copy (pos + chunk)
    end
  in
  copy 0;
  out

let read_bytes_into t ~vaddr ~dst ~dst_pos ~len =
  let rec copy pos =
    if pos < len then begin
      let a = vaddr + pos in
      let page = page_of_addr t a in
      let off = Addr.page_offset a in
      let chunk = min (len - pos) (Addr.page_size - off) in
      Bytes.blit page.data off dst (dst_pos + pos) chunk;
      copy (pos + chunk)
    end
  in
  copy 0

let write_bytes t ~vaddr src =
  let len = Bytes.length src in
  let rec copy pos =
    if pos < len then begin
      let a = vaddr + pos in
      let page = page_of_addr t a in
      let off = Addr.page_offset a in
      let chunk = min (len - pos) (Addr.page_size - off) in
      Bytes.blit src pos page.data off chunk;
      copy (pos + chunk)
    end
  in
  copy 0
