type t = {
  nodes : int;
  cpu_cache_bytes : int;
  cpu_cache_assoc : int;
  cpu_tlb_entries : int;
  tlb_miss : int;
  local_miss : int;
  local_writeback : int;
  upgrade : int;
  net_latency : int;
  barrier_latency : int;
  remote_miss_base : int;
  remote_miss_finish : int;
  repl_shared : int;
  repl_exclusive : int;
  remote_inval : int;
  dir_op : int;
  dir_block_recv : int;
  dir_per_msg : int;
  dir_block_send : int;
  np_tlb_entries : int;
  np_tlb_miss : int;
  np_dcache_bytes : int;
  np_dcache_assoc : int;
  np_dcache_miss : int;
  fault_detect : int;
  stache_max_pages : int option;
  sabotage : bool;
  dir_limited_pointers : int option;
  link_words_per_cycle : int option;
  flow_request_credits : int;
  flow_response_credits : int;
  flow_spill_capacity : int;
  quantum : int;
  seed : int;
}

let default =
  {
    nodes = 32;
    cpu_cache_bytes = 256 * 1024;
    cpu_cache_assoc = 4;
    cpu_tlb_entries = 64;
    tlb_miss = 25;
    local_miss = 29;
    local_writeback = 0;
    upgrade = 5;
    net_latency = 11;
    barrier_latency = 11;
    remote_miss_base = 23;
    remote_miss_finish = 34;
    repl_shared = 5;
    repl_exclusive = 16;
    remote_inval = 8;
    dir_op = 16;
    dir_block_recv = 11;
    dir_per_msg = 5;
    dir_block_send = 11;
    np_tlb_entries = 64;
    np_tlb_miss = 25;
    np_dcache_bytes = 16 * 1024;
    np_dcache_assoc = 2;
    np_dcache_miss = 29;
    fault_detect = 10;
    stache_max_pages = None;
    sabotage = false;
    dir_limited_pointers = None;
    link_words_per_cycle = None;
    (* ample by default: the reliable transport's send window is 512 per
       (src,dst) pair, so 4096 credits per (src,dst,vnet) can never be
       exhausted and every send takes Flow's charge-free direct path *)
    flow_request_credits = 4096;
    flow_response_credits = 4096;
    flow_spill_capacity = 1 lsl 16;
    quantum = 200;
    seed = 42;
  }

let with_cache t size = { t with cpu_cache_bytes = size }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.nodes <= 0 then err "nodes must be positive"
  else if not (is_power_of_two t.cpu_cache_bytes) then
    err "cpu_cache_bytes must be a power of two"
  else if t.cpu_cache_bytes mod (t.cpu_cache_assoc * 32) <> 0 then
    err "cpu cache size must be a multiple of assoc*32"
  else if t.net_latency <= 0 then err "net_latency must be positive"
  else if t.quantum <= 0 then err "quantum must be positive"
  else if t.flow_request_credits <= 0 then
    err "flow_request_credits must be positive"
  else if t.flow_response_credits <= 0 then
    err "flow_response_credits must be positive"
  else if t.flow_spill_capacity < 0 then
    err "flow_spill_capacity must be non-negative"
  else Ok ()
