module Faults = Tt_net.Faults
module Inttbl = Tt_util.Inttbl

type t = {
  salts : int Inttbl.t;
  decisions : Faults.decision Inttbl.t;
}

let create () = { salts = Inttbl.create 32; decisions = Inttbl.create 32 }

let add_salt t ~site salt =
  if salt <> 0 then Inttbl.replace t.salts site salt

let salt t ~site = match Inttbl.find_opt t.salts site with
  | Some s -> s
  | None -> 0

let add_decision t ~site d =
  if d <> Faults.deliver then Inttbl.replace t.decisions site d

let decision t ~site =
  match Inttbl.find_opt t.decisions site with
  | Some d -> d
  | None -> Faults.deliver

let salt_sites t = List.sort compare (Inttbl.fold (fun k _ l -> k :: l) t.salts [])

let fault_sites t =
  List.sort compare (Inttbl.fold (fun k _ l -> k :: l) t.decisions [])

let n_salts t = Inttbl.length t.salts

let n_decisions t = Inttbl.length t.decisions

(* One line per active site:
     P <site> <salt>
     F <site> drop
     F <site> jitter <reorder> <dup>
   Sites absent from the journal replay as neutral (FIFO salt 0 / deliver),
   which is exactly what a masked shrinking run applied at them. *)
let to_lines t =
  List.map
    (fun site -> Printf.sprintf "P %d %d" site (salt t ~site))
    (salt_sites t)
  @ List.map
      (fun site ->
        let d = decision t ~site in
        if d.Faults.dropped then Printf.sprintf "F %d drop" site
        else
          Printf.sprintf "F %d jitter %d %d" site d.Faults.reorder_jitter
            d.Faults.dup_jitter)
      (fault_sites t)

let parse_line t line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "P"; site; salt ] ->
      add_salt t ~site:(int_of_string site) (int_of_string salt);
      true
  | [ "F"; site; "drop" ] ->
      add_decision t ~site:(int_of_string site)
        { Faults.dropped = true; reorder_jitter = 0; dup_jitter = 0 };
      true
  | [ "F"; site; "jitter"; reorder; dup ] ->
      add_decision t ~site:(int_of_string site)
        { Faults.dropped = false;
          reorder_jitter = int_of_string reorder;
          dup_jitter = int_of_string dup };
      true
  | _ -> false
