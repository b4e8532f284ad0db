(** Minimal JSON: an emitter for machine-readable reports and a strict
    parser for reading them (and wire frames) back.

    Numbers are emitted with enough precision to reconstruct doubles;
    strings are escaped per RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two-space
    indentation. Raises [Invalid_argument] on NaN or infinite floats
    (they have no JSON representation). *)

val escape_string : string -> string
(** The quoted, escaped form of a string literal. *)

(** {1 Parsing}

    A strict RFC 8259 recursive-descent parser: it decodes the wire
    protocol's frames, and lets diagnostics and other machine-readable
    reports be round-tripped in tests and consumed back from files. *)

exception Parse_error of string

val of_string : string -> t
(** Parses one JSON document. Numbers without [.]/[e] parse as {!Int},
    all others as {!Float}; [\u] escapes take exactly four hex digits
    and decode to UTF-8, pairing UTF-16 surrogates into a single
    astral-plane code point and rejecting lone surrogates. Raw
    U+0000–U+001F inside a string is rejected, as RFC 8259 requires.
    Raises {!Parse_error} on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an {!Obj}, [None] when
    absent or when [json] is not an object. *)

val to_string_exn : string -> t option -> string
(** [to_string_exn name field] unwraps [Some (String s)]; raises
    {!Parse_error} mentioning [name] otherwise. Decoder helper. *)

val to_int_exn : string -> t option -> int
(** Same for integers. *)
