(** Client-side helpers: build protocol-v1 request frames and decode
    response streams.

    The builders only assemble frames — pair them with any
    {!Transport} (or just concatenate {!Frame.encode_request} outputs
    into a pipe, as [indaas client] does). *)

module Json := Indaas_util.Json

val request : id:int -> meth:string -> (string * Json.t) list -> Frame.request
(** A v1 request with the given params object. *)

val submit_deps :
  id:int -> ?snapshot:string -> source:string -> records:string -> unit ->
  Frame.request
(** [records] is Table 1 wire text. [snapshot] defaults to
    ["default"]. *)

type audit_options = {
  snapshot : string option;
  required : int option;
  algorithm : Indaas_sia.Params.algorithm option;
  rounds : int option;
  prob : float option;
  seed : int option;
  deadline : float option;
}

val audit_options : audit_options
(** All [None]: the server's defaults ({!Indaas_sia.Params.default}).
    Only [Some] fields travel on the wire. *)

val audit :
  id:int -> ?options:audit_options -> servers:string list -> unit ->
  Frame.request

val compare_deployments :
  id:int -> ?options:audit_options -> candidates:string list list -> unit ->
  Frame.request

val rg_query :
  id:int -> ?options:audit_options -> servers:string list -> unit ->
  Frame.request

val stats : id:int -> Frame.request
val shutdown : id:int -> Frame.request

(** {1 Calling over a transport} *)

val call : Transport.t -> Frame.request -> Frame.response
(** Write one request frame, then block for one response frame.
    Raises {!Frame.Protocol_error} / {!Frame.Bad_frame} on a corrupt
    reply, [Failure] if the stream ends first. *)

val decode_responses : string -> Frame.response list
(** Split a byte string into its response frames. Same exceptions. *)
