module Json = Indaas_util.Json
module Params = Indaas_sia.Params

let request ~id ~meth params =
  {
    Frame.id;
    version = Frame.version;
    meth;
    params = (match params with [] -> Json.Null | params -> Json.Obj params);
  }

let submit_deps ~id ?(snapshot = "default") ~source ~records () =
  request ~id ~meth:"submit-deps"
    [
      ("snapshot", Json.String snapshot);
      ("source", Json.String source);
      ("records", Json.String records);
    ]

let strings l = Json.List (List.map (fun s -> Json.String s) l)

(* The request's own field first, then the snapshot, the stated audit
   fields and the deadline. *)
let audit_request meth first ~id ?snapshot ?(stated = Params.fields)
    ?deadline p =
  let snapshot = Option.map (fun s -> ("snapshot", Json.String s)) snapshot
  and deadline = Option.map (fun f -> ("deadline", Json.Float f)) deadline in
  request ~id ~meth
    ((first p :: Option.to_list snapshot)
    @ Params.to_json ~stated p @ Option.to_list deadline)

let servers p = ("servers", strings p.Params.servers)
let audit = audit_request "audit" servers
let rg_query = audit_request "rg-query" servers

let compare_deployments ~id ?snapshot ?stated ?deadline ~candidates =
  audit_request "compare"
    (fun _ -> ("candidates", Json.List (List.map strings candidates)))
    ~id ?snapshot ?stated ?deadline

let stats ~id = request ~id ~meth:"stats" []
let shutdown ~id = request ~id ~meth:"shutdown" []

let read_response transport dec =
  let buf = Bytes.create 8192 in
  let rec loop () =
    match Frame.next dec with
    | Some json -> Frame.response_of_json json
    | None ->
        let n = transport.Transport.read buf 0 (Bytes.length buf) in
        if n = 0 then failwith "Client.call: stream ended before the response";
        Frame.feed dec (Bytes.sub_string buf 0 n);
        loop ()
  in
  loop ()

let call transport req =
  transport.Transport.write (Frame.encode_request req);
  read_response transport (Frame.decoder ())

let decode_responses bytes =
  let dec = Frame.decoder () in
  Frame.feed dec bytes;
  let rec loop acc =
    match Frame.next dec with
    | Some json -> loop (Frame.response_of_json json :: acc)
    | None ->
        if Frame.pending_bytes dec > 0 then
          failwith "Client.decode_responses: truncated trailing frame";
        List.rev acc
  in
  loop []
