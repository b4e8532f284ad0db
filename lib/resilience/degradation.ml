module Json = Indaas_util.Json

type status = Ok | Degraded of string | Failed of string

type source_report = {
  source : string;
  status : status;
  attempts : int;
  modules_total : int;
  modules_failed : int;
  records : int;
  records_lost : int;
}

type t = {
  sources : source_report list;
  completeness : float;
  retries : int;
}

let fully_ok s = s.modules_failed = 0 && s.records_lost = 0

let source_completeness s =
  if s.modules_total = 0 then 1.
  else
    let module_fraction =
      float_of_int (s.modules_total - s.modules_failed)
      /. float_of_int s.modules_total
    in
    let record_fraction =
      if s.records + s.records_lost = 0 then 1.
      else float_of_int s.records /. float_of_int (s.records + s.records_lost)
    in
    module_fraction *. record_fraction

let completeness_of sources =
  match sources with
  | [] -> 1.
  | _ when List.for_all fully_ok sources -> 1.
  | _ ->
      let sum =
        List.fold_left (fun acc s -> acc +. source_completeness s) 0. sources
      in
      let mean = sum /. float_of_int (List.length sources) in
      (* Something was lost, so the ratio must be < 1 even if float
         rounding of the mean says otherwise. *)
      Float.max 0. (Float.min mean (Float.pred 1.))

let make ~retries sources =
  { sources; completeness = completeness_of sources; retries }

let degraded t =
  t.completeness < 1. || List.exists (fun s -> s.status <> Ok) t.sources

let failed_sources t =
  List.filter_map
    (fun s -> match s.status with Failed _ -> Some s.source | _ -> None)
    t.sources

let records_lost t = List.fold_left (fun acc s -> acc + s.records_lost) 0 t.sources
let attempts t = List.fold_left (fun acc s -> acc + s.attempts) 0 t.sources

let status_to_string = function
  | Ok -> "ok"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

let status_reason = function Ok -> None | Degraded r | Failed r -> Some r

let render t =
  if not (degraded t) then "collection complete: all sources healthy"
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "*** DEGRADED AUDIT *** completeness %.2f — incomplete dependency \
          data can only OVERESTIMATE independence\n"
         t.completeness);
    List.iter
      (fun s ->
        match s.status with
        | Ok -> ()
        | Degraded reason ->
            Buffer.add_string buf
              (Printf.sprintf "  - source %s: degraded: %s (%d attempts)\n"
                 s.source reason s.attempts)
        | Failed reason ->
            Buffer.add_string buf
              (Printf.sprintf "  - source %s: FAILED: %s (%d attempts)\n"
                 s.source reason s.attempts))
      t.sources;
    Buffer.add_string buf
      (Printf.sprintf "  %d record(s) lost, %d retr%s spent" (records_lost t)
         t.retries
         (if t.retries = 1 then "y" else "ies"));
    Buffer.contents buf
  end

let source_to_json s =
  Json.Obj
    [
      ("source", Json.String s.source);
      ("status", Json.String (status_to_string s.status));
      ( "reason",
        match status_reason s.status with
        | Some r -> Json.String r
        | None -> Json.Null );
      ("attempts", Json.Int s.attempts);
      ("modules_total", Json.Int s.modules_total);
      ("modules_failed", Json.Int s.modules_failed);
      ("records", Json.Int s.records);
      ("records_lost", Json.Int s.records_lost);
    ]

let to_json t =
  Json.Obj
    [
      ("degraded", Json.Bool (degraded t));
      ("completeness", Json.Float t.completeness);
      ("retries", Json.Int t.retries);
      ("sources", Json.List (List.map source_to_json t.sources));
    ]
