type config = { n : int; iters : int; seed : int }

let small = { n = 12; iters = 3; seed = 9 }

let large = { n = 24; iters = 3; seed = 9 }

let scale cfg factor =
  { cfg with
    n = max 6 (int_of_float (float_of_int cfg.n *. (factor ** (1.0 /. 3.0)))) }

type instance = { body : Env.t -> unit; verify : Env.t -> unit }

let comps = 5

(* deterministic sweep coefficients per component *)
let coef_a k = 0.11 +. (0.01 *. float_of_int k)

let coef_d k = 1.9 +. (0.03 *. float_of_int k)

let coef_c k = 0.07 +. (0.01 *. float_of_int k)

let initial ~n x y z k =
  let f v = float_of_int v /. float_of_int n in
  (1.0 +. f x) *. (1.3 +. f y) *. (0.8 +. f z) +. (0.1 *. float_of_int k)

(* The per-iteration math, shared verbatim by the SPMD body and the oracle
   through the [get]/[set] accessors (u = state, r = rhs work array).
   Sequence: rhs stencil; x-sweep; y-sweep; z-sweep; update. *)
module Kernel = struct
  let rhs ~n ~get_u ~set_r ~range_z ~work =
    let lo, hi = range_z in
    for z = lo to hi do
      for y = 0 to n - 1 do
        for x = 0 to n - 1 do
          for k = 0 to comps - 1 do
            let u o_x o_y o_z =
              let cx = (x + o_x + n) mod n
              and cy = (y + o_y + n) mod n
              and cz = (z + o_z + n) mod n in
              get_u cx cy cz k
            in
            work 10;
            let v =
              (0.4 *. u 0 0 0)
              +. (0.1 *. (u 1 0 0 +. u (-1) 0 0))
              +. (0.1 *. (u 0 1 0 +. u 0 (-1) 0))
              +. (0.1 *. (u 0 0 1 +. u 0 0 (-1)))
            in
            set_r x y z k v
          done
        done
      done
    done

  (* forward/backward substitution along one axis; [cell i] maps a line
     coordinate to (x,y,z) *)
  let line_solve ~n ~get_r ~set_r ~cell ~work =
    for k = 0 to comps - 1 do
      let a = coef_a k and d = coef_d k and c = coef_c k in
      for i = 1 to n - 1 do
        let x, y, z = cell i and px, py, pz = cell (i - 1) in
        work 25 (* 5x5 block multiply-subtract *);
        set_r x y z k ((get_r x y z k -. (a *. get_r px py pz k)) /. d)
      done;
      for i = n - 2 downto 0 do
        let x, y, z = cell i and sx, sy, sz = cell (i + 1) in
        work 25;
        set_r x y z k (get_r x y z k -. (c *. get_r sx sy sz k))
      done
    done

  let update ~n ~get_u ~set_u ~get_r ~range_z ~work =
    let lo, hi = range_z in
    for z = lo to hi do
      for y = 0 to n - 1 do
        for x = 0 to n - 1 do
          for k = 0 to comps - 1 do
            work 2;
            set_u x y z k (get_u x y z k +. (0.5 *. get_r x y z k))
          done
        done
      done
    done
end

let oracle cfg ~nprocs =
  let n = cfg.n in
  let size = n * n * n * comps in
  let u = Array.make size 0.0 and r = Array.make size 0.0 in
  let idx x y z k = ((((z * n) + y) * n) + x) * comps + k in
  for z = 0 to n - 1 do
    for y = 0 to n - 1 do
      for x = 0 to n - 1 do
        for k = 0 to comps - 1 do
          u.(idx x y z k) <- initial ~n x y z k
        done
      done
    done
  done;
  let get_u x y z k = u.(idx x y z k) and set_u x y z k v = u.(idx x y z k) <- v in
  let get_r x y z k = r.(idx x y z k) and set_r x y z k v = r.(idx x y z k) <- v in
  let work _ = () in
  ignore nprocs;
  for _it = 1 to cfg.iters do
    Kernel.rhs ~n ~get_u ~set_r ~range_z:(0, n - 1) ~work;
    for z = 0 to n - 1 do
      for y = 0 to n - 1 do
        Kernel.line_solve ~n ~get_r ~set_r ~cell:(fun i -> i, y, z) ~work
      done
    done;
    for z = 0 to n - 1 do
      for x = 0 to n - 1 do
        Kernel.line_solve ~n ~get_r ~set_r ~cell:(fun i -> x, i, z) ~work
      done
    done;
    for y = 0 to n - 1 do
      for x = 0 to n - 1 do
        Kernel.line_solve ~n ~get_r ~set_r ~cell:(fun i -> x, y, i) ~work
      done
    done;
    Kernel.update ~n ~get_u ~set_u ~get_r ~range_z:(0, n - 1) ~work
  done;
  u

let make cfg ~nprocs =
  let n = cfg.n in
  let slabs = (n + nprocs - 1) / nprocs in
  let expect = oracle cfg ~nprocs in
  (* u and rhs slabs homed per owner *)
  let u_base = Array.make nprocs 0 and r_base = Array.make nprocs 0 in
  let addr base x y z k =
    base.(z / slabs)
    + ((((((z mod slabs) * n) + y) * n) + x) * comps + k) * Env.word
  in
  let slab_range p =
    let lo = min (p * slabs) n in
    let hi = min (lo + slabs) n - 1 in
    lo, hi
  in
  let body (env : Env.t) =
    let p = env.Env.proc in
    let z_lo, z_hi = slab_range p in
    if p = 0 then
      for q = 0 to nprocs - 1 do
        let lo, hi = slab_range q in
        let cells = max 0 (hi - lo + 1) * n * n * comps in
        if cells > 0 then begin
          u_base.(q) <- env.Env.alloc ~home:q (cells * Env.word);
          r_base.(q) <- env.Env.alloc ~home:q (cells * Env.word)
        end
      done;
    env.Env.barrier ();
    for z = z_lo to z_hi do
      for y = 0 to n - 1 do
        for x = 0 to n - 1 do
          for k = 0 to comps - 1 do
            env.Env.write (addr u_base x y z k) (initial ~n x y z k)
          done
        done
      done
    done;
    env.Env.barrier ();
    let get_u x y z k = env.Env.read (addr u_base x y z k) in
    let set_u x y z k v = env.Env.write (addr u_base x y z k) v in
    let get_r x y z k = env.Env.read (addr r_base x y z k) in
    let set_r x y z k v = env.Env.write (addr r_base x y z k) v in
    let work = env.Env.work in
    for _it = 1 to cfg.iters do
      (* rhs over the owned slab; neighbour reads cross slab boundaries *)
      if z_lo <= z_hi then
        Kernel.rhs ~n ~get_u ~set_r ~range_z:(z_lo, z_hi) ~work;
      env.Env.barrier ();
      (* x and y line solves are slab-local *)
      if z_lo <= z_hi then begin
        for z = z_lo to z_hi do
          for y = 0 to n - 1 do
            Kernel.line_solve ~n ~get_r ~set_r ~cell:(fun i -> i, y, z) ~work
          done
        done;
        for z = z_lo to z_hi do
          for x = 0 to n - 1 do
            Kernel.line_solve ~n ~get_r ~set_r ~cell:(fun i -> x, i, z) ~work
          done
        done
      end;
      env.Env.barrier ();
      (* z lines pipeline through the slabs: forward wave down, then
         backward wave up, one stage barrier per processor *)
      for stage = 0 to nprocs - 1 do
        if p = stage && z_lo <= z_hi then begin
          for y = 0 to n - 1 do
            for x = 0 to n - 1 do
              for k = 0 to comps - 1 do
                let a = coef_a k and d = coef_d k in
                let z_start = if z_lo = 0 then 1 else z_lo in
                for z = z_start to z_hi do
                  work 25;
                  set_r x y z k
                    ((get_r x y z k -. (a *. get_r x y (z - 1) k)) /. d)
                done
              done
            done
          done
        end;
        env.Env.barrier ()
      done;
      for stage = nprocs - 1 downto 0 do
        if p = stage && z_lo <= z_hi then begin
          for y = 0 to n - 1 do
            for x = 0 to n - 1 do
              for k = 0 to comps - 1 do
                let c = coef_c k in
                let z_end = if z_hi = n - 1 then n - 2 else z_hi in
                for z = z_end downto z_lo do
                  work 25;
                  set_r x y z k (get_r x y z k -. (c *. get_r x y (z + 1) k))
                done
              done
            done
          done
        end;
        env.Env.barrier ()
      done;
      if z_lo <= z_hi then
        Kernel.update ~n ~get_u ~set_u ~get_r ~range_z:(z_lo, z_hi) ~work;
      env.Env.barrier ()
    done
  in
  let verify (env : Env.t) =
    let p = env.Env.proc in
    let z_lo, z_hi = slab_range p in
    let idx x y z k = ((((z * n) + y) * n) + x) * comps + k in
    for z = z_lo to z_hi do
      for y = 0 to n - 1 do
        for x = 0 to n - 1 do
          for k = 0 to comps - 1 do
            let got = env.Env.read (addr u_base x y z k) in
            let want = expect.(idx x y z k) in
            if abs_float (got -. want) > 1e-9 *. (1.0 +. abs_float want) then
              failwith
                (Printf.sprintf "appbt u[%d,%d,%d,%d] = %.15g, oracle %.15g" x
                   y z k got want)
          done
        done
      done
    done
  in
  { body; verify }
