(* Used by the harness sweeps (scaling grids, fault grids, torture grids):
   every item is an independent sequential simulation, so running them on
   worker domains changes wall-clock only.  Results land by input index;
   on failure the earliest item's exception is re-raised, matching what a
   sequential left-to-right map would have surfaced. *)
let map ~domains f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if domains <= 1 || n <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
            errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let spawned =
      Array.init (min domains n - 1) (fun _ -> Domain.spawn work)
    in
    work ();
    Array.iter Domain.join spawned;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end
