(* End-to-end smoke tests: the same SPMD programs must run and produce
   identical data on both machines, with plausible relative timing. *)

module Run = Tt_harness.Run
module Machine = Tt_harness.Machine
module Env = Tt_app.Env

let small_params nodes = { Params.default with nodes; cpu_cache_bytes = 4096 }

(* Every proc increments every slot of a shared array once per round;
   proc 0 checks the grand total. *)
let counter_app ~slots ~rounds (base : int ref) (env : Env.t) =
  if env.Env.proc = 0 then base := env.Env.alloc (slots * Env.word);
  env.Env.barrier ();
  for _round = 1 to rounds do
    for s = 0 to slots - 1 do
      let a = !base + (s * Env.word) in
      env.Env.lock s;
      env.Env.write a (env.Env.read a +. 1.0);
      env.Env.unlock s
    done;
    env.Env.barrier ()
  done;
  if env.Env.proc = 0 then begin
    let total = ref 0.0 in
    for s = 0 to slots - 1 do
      total := !total +. env.Env.read (!base + (s * Env.word))
    done;
    let expect = float_of_int (slots * rounds * env.Env.nprocs) in
    if !total <> expect then
      failwith
        (Printf.sprintf "counter mismatch: got %f, want %f" !total expect)
  end

(* Owner-computes stencil: each proc owns a chunk, reads neighbours from
   adjacent procs, iterates. *)
let stencil_app ~cells_per_proc ~iters (base : int ref) (env : Env.t) =
  let n = env.Env.nprocs * cells_per_proc in
  if env.Env.proc = 0 then begin
    base := env.Env.alloc (2 * n * Env.word);
    for i = 0 to n - 1 do
      env.Env.write (!base + (i * Env.word)) (float_of_int i)
    done
  end;
  env.Env.barrier ();
  let addr gen i = !base + (((gen * n) + i) * Env.word) in
  let lo = env.Env.proc * cells_per_proc in
  let hi = lo + cells_per_proc - 1 in
  for it = 0 to iters - 1 do
    let src = it mod 2 and dst = 1 - (it mod 2) in
    for i = lo to hi do
      let left = if i = 0 then n - 1 else i - 1 in
      let right = if i = n - 1 then 0 else i + 1 in
      let v =
        (env.Env.read (addr src left)
        +. env.Env.read (addr src i)
        +. env.Env.read (addr src right))
        /. 3.0
      in
      env.Env.work 5;
      env.Env.write (addr dst i) v
    done;
    env.Env.barrier ()
  done

(* Sequential oracle for the stencil. *)
let stencil_oracle ~n ~iters =
  let a = Array.init n float_of_int and b = Array.make n 0.0 in
  let cur = ref a and nxt = ref b in
  for _ = 1 to iters do
    for i = 0 to n - 1 do
      let left = if i = 0 then n - 1 else i - 1 in
      let right = if i = n - 1 then 0 else i + 1 in
      (!nxt).(i) <- ((!cur).(left) +. (!cur).(i) +. (!cur).(right)) /. 3.0
    done;
    let t = !cur in
    cur := !nxt;
    nxt := t
  done;
  !cur

let machines () =
  [ ("dirnnb", fun p -> Machine.dirnnb p);
    ("stache", fun p -> Machine.typhoon_stache p) ]

let test_counter () =
  List.iter
    (fun (label, make) ->
      let machine = make (small_params 4) in
      let base = ref 0 in
      let r =
        Run.spmd machine ~name:"counter" (counter_app ~slots:16 ~rounds:3 base)
      in
      Alcotest.(check bool)
        (label ^ ": positive cycles")
        true (r.Run.cycles > 0))
    (machines ())

let test_stencil_values () =
  let cells = 32 and iters = 4 and nodes = 4 in
  let oracle = stencil_oracle ~n:(nodes * cells) ~iters in
  List.iter
    (fun (label, make) ->
      let machine = make (small_params nodes) in
      let base = ref 0 in
      let r =
        Run.spmd machine ~name:"stencil"
          (stencil_app ~cells_per_proc:cells ~iters base)
      in
      ignore r;
      (* read back the final generation through node 0's view *)
      let m2 = machine in
      ignore m2;
      let n = nodes * cells in
      let gen = iters mod 2 in
      (* run a tiny checking pass on the same machine *)
      let checker (env : Env.t) =
        if env.Env.proc = 0 then
          for i = 0 to n - 1 do
            let a = !base + (((gen * n) + i) * Env.word) in
            let v = env.Env.read a in
            if abs_float (v -. oracle.(i)) > 1e-9 then
              failwith
                (Printf.sprintf "%s: cell %d = %.12g, oracle %.12g" label i v
                   oracle.(i))
          done
      in
      ignore (Run.spmd machine ~name:"stencil-check" ~check:false checker))
    (machines ())

let test_stache_beats_remote_rereads () =
  (* With a data set larger than the CPU cache, Stache should win (Figure 3's
     headline): capacity misses are satisfied locally. *)
  let nodes = 4 in
  let p = { Params.default with nodes; cpu_cache_bytes = 4096 } in
  (* all data homed on node 0; all procs stream over it repeatedly *)
  let streaming (base : int ref) (env : Env.t) =
    let words = 4096 in
    if env.Env.proc = 0 then base := env.Env.alloc ~home:0 (words * Env.word);
    env.Env.barrier ();
    (* write once from the home to initialize *)
    if env.Env.proc = 0 then
      for i = 0 to words - 1 do
        env.Env.write (!base + (i * Env.word)) 1.0
      done;
    env.Env.barrier ();
    let acc = ref 0.0 in
    for _pass = 1 to 3 do
      for i = 0 to words - 1 do
        acc := !acc +. env.Env.read (!base + (i * Env.word))
      done
    done;
    ignore !acc
  in
  let run make =
    let machine = make p in
    let base = ref 0 in
    (Run.spmd machine ~name:"streaming" (streaming base)).Run.cycles
  in
  let dir_cycles = run Machine.dirnnb in
  let stache_cycles = run (fun p -> Machine.typhoon_stache p) in
  Alcotest.(check bool)
    (Printf.sprintf "stache (%d) < dirnnb (%d) on capacity-miss streaming"
       stache_cycles dir_cycles)
    true
    (stache_cycles < dir_cycles)

let () =
  Alcotest.run "smoke"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "shared counter on both machines" `Quick
            test_counter;
          Alcotest.test_case "stencil matches sequential oracle" `Quick
            test_stencil_values;
          Alcotest.test_case "stache wins when working set exceeds cache"
            `Quick test_stache_beats_remote_rereads;
        ] );
    ]
