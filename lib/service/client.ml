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

type audit_options = {
  snapshot : string option;
  required : int option;
  algorithm : Params.algorithm option;
  rounds : int option;
  prob : float option;
  seed : int option;
  deadline : float option;
}

let audit_options =
  {
    snapshot = None;
    required = None;
    algorithm = None;
    rounds = None;
    prob = None;
    seed = None;
    deadline = None;
  }

(* Only stated options travel: the daemon owns the defaults, so a
   bare request and an explicitly-default one share a cache entry. *)
let option_params o =
  let field name value to_json =
    match value with Some v -> [ (name, to_json v) ] | None -> []
  in
  field "snapshot" o.snapshot (fun s -> Json.String s)
  @ field "required" o.required (fun i -> Json.Int i)
  @ field "algorithm" o.algorithm (fun a ->
        Json.String (Params.name Params.algorithms a))
  @ field "rounds" o.rounds (fun i -> Json.Int i)
  @ field "prob" o.prob (fun f -> Json.Float f)
  @ field "seed" o.seed (fun i -> Json.Int i)
  @ field "deadline" o.deadline (fun f -> Json.Float f)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let audit ~id ?(options = audit_options) ~servers () =
  request ~id ~meth:"audit"
    (("servers", strings servers) :: option_params options)

let compare_deployments ~id ?(options = audit_options) ~candidates () =
  request ~id ~meth:"compare"
    (("candidates", Json.List (List.map strings candidates))
    :: option_params options)

let rg_query ~id ?(options = audit_options) ~servers () =
  request ~id ~meth:"rg-query"
    (("servers", strings servers) :: option_params options)

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
