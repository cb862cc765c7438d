type vnet = Request | Response

let vnet_to_string = function Request -> "request" | Response -> "response"

(* Fields are mutable so the transport can stamp seq/ack in place and the
   pool can rewrite a recycled record instead of allocating a new one.
   [pool_rc] is the ownership word: -1 = ordinary message (never pooled;
   release/retain are no-ops), >= 1 = live pooled message with that many
   owners, 0 = sitting in a freelist. *)
type t = {
  mutable src : int;
  mutable dst : int;
  mutable vnet : vnet;
  mutable handler : int;
  mutable args : int array;
  mutable data : Bytes.t;
  mutable seq : int;
  mutable ack : int;
  mutable pool_rc : int;
}

let max_payload_words = 20

let words t = 1 + Array.length t.args + ((Bytes.length t.data + 3) / 4)

let check_words m =
  let w = words m in
  if w > max_payload_words then
    invalid_arg
      (Printf.sprintf "Message.make: %d words exceeds the %d-word packet limit"
         w max_payload_words)

let make ~src ~dst ~vnet ~handler ?(args = [||]) ?(data = Bytes.empty)
    ?(seq = -1) ?(ack = -1) () =
  let m = { src; dst; vnet; handler; args; data; seq; ack; pool_rc = -1 } in
  check_words m;
  m

let dummy = make ~src:0 ~dst:0 ~vnet:Request ~handler:(-1) ()

type msg = t

module Pool = struct
  (* Freelists are bucketed by (virtual network, argument arity) so a
     recycled record's args array is always exactly the right size and the
     two vnets never contend for each other's messages (the paper's
     deadlock argument keeps the nets independent; the pools follow).
     Each bucket is a grow-only array used as a stack: push/pop allocate
     nothing in steady state.

     A pool belongs to one machine (its {!Fabric}), and a machine runs on
     one domain, so no lookup by domain is needed and no mutable state is
     shared between simulations run side by side under
     [Tt_sim.Domains.map]. *)

  let max_args = max_payload_words - 1 (* handler word leaves 19 arg slots *)

  let bucket_cap = 512 (* freelist bound per bucket; beyond it, let the GC *)

  type bucket = { mutable items : msg array; mutable len : int }

  (* [scratch.(n)] is the shared argument array of arity [n]: a send site
     fills it and passes it to [acquire], which copies the values into the
     pooled message synchronously — so the scratch is free for reuse as
     soon as acquire returns, and no [| ... |] literal is allocated per
     send. *)
  type t = { buckets : bucket array; scratch_arrays : int array array }

  let nbuckets = 2 * (max_args + 1)

  let create () =
    { buckets = Array.init nbuckets (fun _ -> { items = [||]; len = 0 });
      scratch_arrays = Array.init (max_args + 1) (fun n -> Array.make n 0) }

  let bucket_index vnet nargs =
    (match vnet with Request -> 0 | Response -> max_args + 1) + nargs

  let scratch p n =
    if n < 0 || n > max_args then
      invalid_arg (Printf.sprintf "Message.Pool.scratch: bad arity %d" n);
    Array.unsafe_get p.scratch_arrays n

  let grow b seed =
    let cap = Array.length b.items in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let items = Array.make ncap seed in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items

  (* The all-labelled core: optional arguments are a hidden allocation —
     the *call site* boxes every supplied value in [Some] — so the
     steady-state send path must go through a signature with none. *)
  let acquire_full p ~src ~dst ~vnet ~handler ~args ~data ~seq ~ack =
    let nargs = Array.length args in
    if nargs > max_args then
      (* unpooled fallback for oversized packets ([make] rejects them):
         must still copy [args], the caller may be handing us a scratch
         array it will refill for its next send *)
      make ~src ~dst ~vnet ~handler ~args:(Array.copy args) ~data ~seq ~ack ()
    else begin
      let b = p.buckets.(bucket_index vnet nargs) in
      if b.len = 0 then begin
        let m =
          { src; dst; vnet; handler; args = Array.copy args; data; seq; ack;
            pool_rc = 1 }
        in
        check_words m;
        m
      end
      else begin
        b.len <- b.len - 1;
        let m = b.items.(b.len) in
        m.src <- src;
        m.dst <- dst;
        m.vnet <- vnet;
        m.handler <- handler;
        Array.blit args 0 m.args 0 nargs;
        m.data <- data;
        m.seq <- seq;
        m.ack <- ack;
        m.pool_rc <- 1;
        check_words m;
        m
      end
    end

  let acquire_raw p ~src ~dst ~vnet ~handler ~args ~data =
    acquire_full p ~src ~dst ~vnet ~handler ~args ~data ~seq:(-1) ~ack:(-1)

  let acquire p ~src ~dst ~vnet ~handler ?(args = [||]) ?(data = Bytes.empty)
      ?(seq = -1) ?(ack = -1) () =
    acquire_full p ~src ~dst ~vnet ~handler ~args ~data ~seq ~ack

  let retain m =
    if m.pool_rc = 0 then
      invalid_arg "Message.Pool.retain: message is in the freelist"
    else if m.pool_rc > 0 then m.pool_rc <- m.pool_rc + 1
  (* pool_rc < 0: ordinary message, ownership is the GC's problem *)

  let release p m =
    if m.pool_rc = 0 then
      invalid_arg "Message.Pool.release: message released twice"
    else if m.pool_rc > 0 then begin
      m.pool_rc <- m.pool_rc - 1;
      if m.pool_rc = 0 then begin
        let nargs = Array.length m.args in
        m.data <- Bytes.empty (* drop the payload reference either way *);
        if Tt_util.Debug.pool_debug () then begin
          (* poison so a handler that stashed the message reads nonsense
             deterministically instead of the next send's fields *)
          m.src <- min_int;
          m.dst <- min_int;
          m.handler <- min_int;
          m.seq <- min_int;
          m.ack <- min_int;
          Array.fill m.args 0 nargs min_int
        end;
        let b = p.buckets.(bucket_index m.vnet nargs) in
        if b.len < bucket_cap then begin
          if b.len = Array.length b.items then grow b m;
          b.items.(b.len) <- m;
          b.len <- b.len + 1
        end
        (* over the cap: leave pool_rc = 0 and let the GC take it; it can
           never be released again (rc 0 rejects) *)
      end
    end

  let free_count p = Array.fold_left (fun acc b -> acc + b.len) 0 p.buckets
end
