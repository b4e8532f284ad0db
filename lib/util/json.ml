type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_literal f =
  if Float.is_nan f || not (Float.is_finite f) then
    invalid_arg "Json: non-finite float"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(indent = false) value =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let newline () = if indent then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_literal f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        newline ();
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (key, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (depth + 1);
            Buffer.add_string buf (escape_string key);
            Buffer.add_string buf (if indent then ": " else ":");
            emit (depth + 1) v)
          fields;
        newline ();
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 value;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Recursive-descent parser over the string; [pos] is the cursor. Kept
   deliberately strict: it accepts exactly RFC 8259 JSON, which is all
   {!to_string} ever emits. *)
let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error "Json.of_string: expected %C at %d, got %C" c !pos c'
    | None ->
        parse_error "Json.of_string: expected %C at %d, got end of input" c !pos
  in
  let expect_word w value =
    if !pos + String.length w <= len && String.sub s !pos (String.length w) = w
    then begin
      pos := !pos + String.length w;
      value
    end
    else parse_error "Json.of_string: invalid literal at %d" !pos
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then parse_error "Json.of_string: unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= len then parse_error "Json.of_string: unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             (* Exactly four hex digits: [int_of_string] would also
                take OCaml's [_] digit separators. *)
             let hex_escape () =
               if !pos + 4 > len then
                 parse_error "Json.of_string: truncated \\u escape";
               let start = !pos in
               let code = ref 0 in
               for i = start to start + 3 do
                 let digit =
                   match s.[i] with
                   | '0' .. '9' as c -> Char.code c - Char.code '0'
                   | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                   | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                   | _ ->
                       parse_error "Json.of_string: bad \\u escape %S at %d"
                         (String.sub s start 4) start
                 in
                 code := (!code lsl 4) lor digit
               done;
               pos := start + 4;
               !code
             in
             let code = hex_escape () in
             (* UTF-16 surrogate pairs encode one astral-plane code
                point across two \u escapes; either half alone is not
                a character (RFC 8259 §7). *)
             if code >= 0xD800 && code <= 0xDBFF then begin
               if
                 not
                   (!pos + 1 < len && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
               then
                 parse_error
                   "Json.of_string: lone high surrogate \\u%04X" code;
               pos := !pos + 2;
               let low = hex_escape () in
               if low < 0xDC00 || low > 0xDFFF then
                 parse_error
                   "Json.of_string: high surrogate \\u%04X followed by \
                    \\u%04X, not a low surrogate"
                   code low;
               add_utf8 buf
                 (0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00)))
             end
             else if code >= 0xDC00 && code <= 0xDFFF then
               parse_error "Json.of_string: lone low surrogate \\u%04X" code
             else add_utf8 buf code
         | e -> parse_error "Json.of_string: bad escape \\%c" e);
        loop ()
      end
      else if c < ' ' then
        parse_error
          "Json.of_string: unescaped control character U+%04X in string at %d"
          (Char.code c) (!pos - 1)
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < len
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_error "Json.of_string: bad number %S" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Integer literal too wide for [int]: keep it as a float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> parse_error "Json.of_string: bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None ->
        parse_error "Json.of_string: end of input inside a value at %d" !pos
    | Some '"' -> String (parse_string ())
    | Some 't' -> expect_word "true" (Bool true)
    | Some 'f' -> expect_word "false" (Bool false)
    | Some 'n' -> expect_word "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (key, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some '-' | Some ('0' .. '9') -> parse_number ()
    | Some c -> parse_error "Json.of_string: unexpected %C at %d" c !pos
  in
  skip_ws ();
  if !pos = len then parse_error "Json.of_string: empty input";
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then
    parse_error "Json.of_string: trailing garbage at %d" !pos;
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_exn name = function
  | Some (String s) -> s
  | _ -> parse_error "Json: expected string field %S" name

let to_int_exn name = function
  | Some (Int i) -> i
  | _ -> parse_error "Json: expected int field %S" name
