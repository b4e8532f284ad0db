type t = {
  mutable rev_records : Dependency.t list;
  seen : (Dependency.t, unit) Hashtbl.t;
  by_src : (string, Dependency.network) Hashtbl.t;
  by_machine_hw : (string, Dependency.hardware) Hashtbl.t;
  by_machine_sw : (string, Dependency.software) Hashtbl.t;
  by_pgm : (string, Dependency.software) Hashtbl.t;
}

let create () =
  {
    rev_records = [];
    seen = Hashtbl.create 256;
    by_src = Hashtbl.create 64;
    by_machine_hw = Hashtbl.create 64;
    by_machine_sw = Hashtbl.create 64;
    by_pgm = Hashtbl.create 64;
  }

let add t record =
  if not (Hashtbl.mem t.seen record) then begin
    Hashtbl.add t.seen record ();
    t.rev_records <- record :: t.rev_records;
    match record with
    | Dependency.Network n -> Hashtbl.add t.by_src n.Dependency.src n
    | Dependency.Hardware h -> Hashtbl.add t.by_machine_hw h.Dependency.hw h
    | Dependency.Software s ->
        Hashtbl.add t.by_machine_sw s.Dependency.host s;
        Hashtbl.add t.by_pgm s.Dependency.pgm s
  end

let add_all t records = List.iter (add t) records

let size t = Hashtbl.length t.seen

let records t = List.rev t.rev_records

(* Hashtbl.find_all returns most-recently-added first; reverse to
   restore insertion order. *)
let network_paths t ~src = List.rev (Hashtbl.find_all t.by_src src)
let hardware_of t ~machine = List.rev (Hashtbl.find_all t.by_machine_hw machine)
let software_on t ~machine = List.rev (Hashtbl.find_all t.by_machine_sw machine)
let software_named t ~pgm = List.rev (Hashtbl.find_all t.by_pgm pgm)

module SS = Set.Make (String)

let machines t =
  List.fold_left
    (fun acc r -> SS.add (Dependency.subject r) acc)
    SS.empty (records t)
  |> SS.elements

let component_set t ~machine =
  List.fold_left
    (fun acc r ->
      if Dependency.subject r = machine then
        List.fold_left (fun acc c -> SS.add c acc) acc (Dependency.components r)
      else acc)
    SS.empty (records t)
  |> SS.elements

let to_string t = Dependency.to_xml_many (records t)

(* Canonical form: the distinct records' wire lines in
   Dependency.compare order, so two record lists holding the same set
   digest identically no matter what order (or how many times) their
   sources submitted them. *)
let canonical_digest records =
  let sorted = List.sort_uniq Dependency.compare records in
  ( Indaas_crypto.Digest.sha256_hex (Dependency.to_xml_many sorted),
    List.length sorted )

let digest t = fst (canonical_digest (records t))

let of_string s =
  let t = create () in
  add_all t (Dependency.of_xml_many s);
  t

let merge a b =
  let t = create () in
  add_all t (records a);
  add_all t (records b);
  t
