(** The INDaaS wire protocol, v1: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by exactly
    that many bytes of UTF-8 JSON. Requests and responses are JSON
    objects:

    {v
    request:  {"v": 1, "id": N, "method": "audit", "params": {...}}
    response: {"id": N, "ok": RESULT}
            | {"id": N, "error": {"code": "...", "message": "..."}}
    v}

    The method set is versioned by the top-level ["v"] field; this
    module speaks exactly {!version}. Encoding is canonical (compact
    JSON, fields in the order above), so a frame is a pure function of
    its content — the serving determinism contract builds on that.

    {!type:decoder} is incremental: feed it arbitrary byte chunks from
    any transport and pop complete frames as they materialize. Split
    length prefixes, 1-byte reads and concatenated frames all
    reassemble to the same frame sequence. *)

module Json := Indaas_util.Json

val version : int
(** Protocol version, [1]. *)

val max_frame : int
(** Hard payload-size ceiling (16 MiB): a length prefix above it is a
    protocol error, not an allocation request. *)

exception Protocol_error of string
(** Unrecoverable stream corruption: an oversized or zero length
    prefix, or a payload that is not valid JSON. After raising, a
    decoder refuses further input — framing is lost for good. *)

exception Bad_frame of string
(** A structurally valid JSON frame that is not a well-formed request
    or response (missing [id], non-string [method], ...). The stream
    itself is still in sync; the peer can answer with an error and
    keep going. *)

type request = {
  id : int;  (** client-chosen correlation id, echoed in the response *)
  version : int;  (** the ["v"] field *)
  meth : string;
  params : Json.t;  (** [Obj] of method parameters; [Null] if absent *)
}

type error = { code : string; message : string }

type response = { id : int; result : (Json.t, error) result }

(** {1 Encoding} *)

val frame : string -> string
(** Wrap a payload in a length prefix. Raises {!Protocol_error} if the
    payload is empty or exceeds {!max_frame}. *)

val request_to_json : request -> Json.t
val response_to_json : response -> Json.t

val encode_request : request -> string
(** A complete frame: prefix plus compact JSON. *)

val encode_response : response -> string
(** Same for a response. Raises {!Protocol_error} if the payload
    exceeds {!max_frame}; the server answers such a response with a
    [response-too-large] error frame instead. *)

(** {1 Decoding} *)

val request_of_json : Json.t -> request
(** Raises {!Bad_frame} on a malformed request object. A missing
    ["v"] field is {!Bad_frame} too: every request states its
    version. *)

val response_of_json : Json.t -> response
(** Raises {!Bad_frame} on a malformed response object. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Append raw transport bytes. Raises {!Protocol_error} if the
    decoder is already poisoned, and [Invalid_argument] on an
    out-of-bounds substring. *)

val next : decoder -> Json.t option
(** The next complete frame's parsed payload, or [None] until more
    bytes arrive. Raises {!Protocol_error} on a corrupt prefix or
    payload (and poisons the decoder). *)

val pending_bytes : decoder -> int
(** Unconsumed buffered bytes — 0 exactly when every fed byte has been
    returned by {!next} as part of a frame. *)
