type vnet = Request | Response

let vnet_to_string = function Request -> "request" | Response -> "response"

(* [handler], [seq] and [ack] are mutable so the transport can stamp and
   scrub its envelope in place. *)
type t = {
  src : int;
  dst : int;
  vnet : vnet;
  mutable handler : int;
  args : int array;
  data : Bytes.t;
  mutable seq : int;
  mutable ack : int;
}

let max_payload_words = 20

let words t = 1 + Array.length t.args + ((Bytes.length t.data + 3) / 4)

let make ~src ~dst ~vnet ~handler ~args ~data =
  let m = { src; dst; vnet; handler; args; data; seq = -1; ack = -1 } in
  let w = words m in
  if w > max_payload_words then
    invalid_arg
      (Printf.sprintf "Message.make: %d words exceeds the %d-word packet limit"
         w max_payload_words);
  m

let dummy =
  make ~src:0 ~dst:0 ~vnet:Request ~handler:(-1) ~args:[||] ~data:Bytes.empty
