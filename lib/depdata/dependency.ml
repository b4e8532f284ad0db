type network = { src : string; dst : string; route : string list }
type hardware = { hw : string; hw_type : string; dep : string }
type software = { pgm : string; host : string; deps : string list }

type t =
  | Network of network
  | Hardware of hardware
  | Software of software

let network ~src ~dst ~route = Network { src; dst; route }
let hardware ~hw ~hw_type ~dep = Hardware { hw; hw_type; dep }
let software ~pgm ~host ~deps = Software { pgm; host; deps }

(* One record's wire line, appended to [buf]. The wire format does not
   support embedded quotes, so every attribute value (each list
   element, for routes and package lists) is checked before it is
   written. The check is a plain loop: [String.contains] goes through
   an exception per value and costs more than the writing. *)
let rec has_quote s i n =
  i < n && (String.unsafe_get s i = '"' || has_quote s (i + 1) n)

let add_value buf s =
  if has_quote s 0 (String.length s) then
    invalid_arg "Dependency: attribute value contains a quote";
  Buffer.add_string buf s

let add_attr buf key s =
  Buffer.add_string buf key;
  Buffer.add_char buf '"';
  add_value buf s;
  Buffer.add_char buf '"'

let add_list_attr buf key l =
  Buffer.add_string buf key;
  Buffer.add_char buf '"';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      add_value buf s)
    l;
  Buffer.add_char buf '"'

let add_xml buf = function
  | Network { src; dst; route } ->
      add_attr buf "<src=" src;
      add_attr buf " dst=" dst;
      add_list_attr buf " route=" route;
      Buffer.add_string buf "/>"
  | Hardware { hw; hw_type; dep } ->
      add_attr buf "<hw=" hw;
      add_attr buf " type=" hw_type;
      add_attr buf " dep=" dep;
      Buffer.add_string buf "/>"
  | Software { pgm; host; deps } ->
      add_attr buf "<pgm=" pgm;
      add_attr buf " hw=" host;
      add_list_attr buf " dep=" deps;
      Buffer.add_string buf "/>"

let to_xml r =
  let buf = Buffer.create 64 in
  add_xml buf r;
  Buffer.contents buf

let to_xml_many records =
  let buf = Buffer.create (64 * List.length records) in
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf '\n';
      add_xml buf r)
    records;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

(* Parse [key="value"] pairs from the inside of a tag. *)
let parse_attributes body =
  let n = String.length body in
  let attrs = ref [] in
  let i = ref 0 in
  let fail msg = failwith (Printf.sprintf "Dependency.of_xml: %s in %S" msg body) in
  while !i < n do
    while !i < n && (body.[!i] = ' ' || body.[!i] = '\t') do incr i done;
    if !i < n then begin
      let key_start = !i in
      while !i < n && body.[!i] <> '=' do incr i done;
      if !i >= n then fail "missing '='";
      let key = String.trim (String.sub body key_start (!i - key_start)) in
      incr i;
      if !i >= n || body.[!i] <> '"' then fail "missing opening quote";
      incr i;
      let value_start = !i in
      while !i < n && body.[!i] <> '"' do incr i done;
      if !i >= n then fail "missing closing quote";
      let value = String.sub body value_start (!i - value_start) in
      incr i;
      attrs := (key, value) :: !attrs
    end
  done;
  List.rev !attrs

let split_commas s =
  if String.trim s = "" then []
  else List.map String.trim (String.split_on_char ',' s)

let of_attributes attrs =
  let find key =
    match List.assoc_opt key attrs with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Dependency.of_xml: missing %S attribute" key)
  in
  match attrs with
  | ("src", _) :: _ ->
      Network { src = find "src"; dst = find "dst"; route = split_commas (find "route") }
  | ("hw", _) :: _ ->
      Hardware { hw = find "hw"; hw_type = find "type"; dep = find "dep" }
  | ("pgm", _) :: _ ->
      Software { pgm = find "pgm"; host = find "hw"; deps = split_commas (find "dep") }
  | (other, _) :: _ ->
      failwith (Printf.sprintf "Dependency.of_xml: unknown record type %S" other)
  | [] -> failwith "Dependency.of_xml: empty tag"

let of_xml s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '<' || s.[n - 1] <> '>' then
    failwith (Printf.sprintf "Dependency.of_xml: not a tag: %S" s);
  let stop = if n >= 3 && s.[n - 2] = '/' then n - 2 else n - 1 in
  of_attributes (parse_attributes (String.sub s 1 (stop - 1)))

let of_xml_many doc =
  (* One record per '<...>' group; everything outside tags is
     ignored (separators, prose). *)
  let records = ref [] in
  let n = String.length doc in
  let i = ref 0 in
  while !i < n do
    match String.index_from_opt doc !i '<' with
    | None -> i := n
    | Some start -> (
        match String.index_from_opt doc start '>' with
        | None -> failwith "Dependency.of_xml_many: unterminated tag"
        | Some stop ->
            let tag = String.sub doc start (stop - start + 1) in
            records := of_xml tag :: !records;
            i := stop + 1)
  done;
  List.rev !records

(* Monomorphic, but exactly [Stdlib.compare]'s order: constructors in
   declaration order, then fields in declaration order, lists
   lexicographically with [[]] first. Canonical digests and lint
   diagnostics sort by it, so the order is part of their bytes. *)
let rec compare_list l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: l1, y :: l2 ->
      let c = String.compare x y in
      if c <> 0 then c else compare_list l1 l2

let compare a b =
  match (a, b) with
  | Network x, Network y ->
      let c = String.compare x.src y.src in
      if c <> 0 then c
      else
        let c = String.compare x.dst y.dst in
        if c <> 0 then c else compare_list x.route y.route
  | Hardware x, Hardware y ->
      let c = String.compare x.hw y.hw in
      if c <> 0 then c
      else
        let c = String.compare x.hw_type y.hw_type in
        if c <> 0 then c else String.compare x.dep y.dep
  | Software x, Software y ->
      let c = String.compare x.pgm y.pgm in
      if c <> 0 then c
      else
        let c = String.compare x.host y.host in
        if c <> 0 then c else compare_list x.deps y.deps
  | Network _, _ -> -1
  | _, Network _ -> 1
  | Hardware _, _ -> -1
  | _, Hardware _ -> 1

let equal a b = compare a b = 0

let pp fmt t = Format.pp_print_string fmt (to_xml t)

let subject = function
  | Network { src; _ } -> src
  | Hardware { hw; _ } -> hw
  | Software { host; _ } -> host

let components = function
  | Network { route; _ } -> route
  | Hardware { dep; _ } -> [ dep ]
  | Software { deps; _ } -> deps
