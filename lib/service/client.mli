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

(** {1 Audit requests}

    Each sends its own field ([servers], or [candidates] for
    [compare]), then [snapshot] (server default ["default"]), the
    [stated] fields of the {!Indaas_sia.Params.t} (default: all of
    them) through {!Indaas_sia.Params.to_json}, and the scheduling
    [deadline] in virtual seconds. A field left unstated takes the
    daemon's default, so [~stated:[]] leaves its [--seed] in charge. *)

val audit :
  id:int -> ?snapshot:string -> ?stated:Indaas_sia.Params.field list ->
  ?deadline:float -> Indaas_sia.Params.t -> Frame.request
(** An audit of the params' [servers]. *)

val compare_deployments :
  id:int -> ?snapshot:string -> ?stated:Indaas_sia.Params.field list ->
  ?deadline:float -> candidates:string list list -> Indaas_sia.Params.t ->
  Frame.request
(** The params' [servers] are ignored. *)

val rg_query :
  id:int -> ?snapshot:string -> ?stated:Indaas_sia.Params.field list ->
  ?deadline:float -> Indaas_sia.Params.t -> Frame.request

val stats : id:int -> Frame.request
val shutdown : id:int -> Frame.request

(** {1 Calling over a transport} *)

val call : Transport.t -> Frame.request -> Frame.response
(** Write one request frame, then block for one response frame.
    Raises {!Frame.Protocol_error} / {!Frame.Bad_frame} on a corrupt
    reply, [Failure] if the stream ends first. *)

val decode_responses : string -> Frame.response list
(** Split a byte string into its response frames. Same exceptions. *)
