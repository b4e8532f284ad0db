module Vclock = Indaas_resilience.Vclock
module Json = Indaas_util.Json
module Obs = Indaas_obs.Registry

(* The queue holds every submission in arrival order: an admitted job
   runs (or misses its deadline) at its turn, and an overloaded one is
   answered at its turn, so no answer overtakes an earlier one. *)
type job =
  | Admitted of {
      arrival : float;  (** virtual admission time *)
      deadline : float option;
      cost : float;
      run : unit -> unit;
      shed : reason:string -> unit;
    }
  | Overloaded of (reason:string -> unit)

type t = {
  clock : Vclock.t;
  max_queue : int;
  default_deadline : float option;
  queue : job Queue.t;
  mutable submitted : int;
  mutable admitted : int;
  mutable served : int;
  mutable shed_overload : int;
  mutable shed_deadline : int;
}

let create ?(max_queue = 64) ?default_deadline () =
  if max_queue < 1 then
    invalid_arg "Scheduler.create: max_queue must be positive";
  (match default_deadline with
  | Some d when d < 0. ->
      invalid_arg "Scheduler.create: default_deadline must be non-negative"
  | _ -> ());
  {
    clock = Vclock.create ();
    max_queue;
    default_deadline;
    queue = Queue.create ();
    submitted = 0;
    admitted = 0;
    served = 0;
    shed_overload = 0;
    shed_deadline = 0;
  }

let clock t = t.clock

(* Every admitted job leaves the queue served or past its deadline. *)
let waiting t = t.admitted - t.served - t.shed_deadline

let submit t ?deadline ~cost ~run ~shed () =
  if cost < 0. then invalid_arg "Scheduler.submit: cost must be non-negative";
  t.submitted <- t.submitted + 1;
  if waiting t >= t.max_queue then begin
    t.shed_overload <- t.shed_overload + 1;
    Obs.incr "service.sched.shed.overload";
    Queue.add (Overloaded shed) t.queue
  end
  else begin
    t.admitted <- t.admitted + 1;
    Obs.incr "service.sched.admitted";
    let deadline =
      match deadline with Some _ as d -> d | None -> t.default_deadline
    in
    Queue.add
      (Admitted { arrival = Vclock.now t.clock; deadline; cost; run; shed })
      t.queue
  end

let run_all t =
  while not (Queue.is_empty t.queue) do
    match Queue.pop t.queue with
    | Overloaded shed -> shed ~reason:"overloaded"
    | Admitted job -> (
        let waited = Vclock.now t.clock -. job.arrival in
        match job.deadline with
        | Some d when waited > d ->
            t.shed_deadline <- t.shed_deadline + 1;
            Obs.incr "service.sched.shed.deadline";
            Obs.observe "service.sched.wait_seconds" waited;
            job.shed ~reason:"deadline-exceeded"
        | _ ->
            Vclock.advance t.clock job.cost;
            t.served <- t.served + 1;
            Obs.incr "service.sched.served";
            Obs.observe "service.sched.wait_seconds" waited;
            job.run ())
  done

type stats = {
  submitted : int;
  admitted : int;
  served : int;
  shed_overload : int;
  shed_deadline : int;
}

let stats (t : t) =
  {
    submitted = t.submitted;
    admitted = t.admitted;
    served = t.served;
    shed_overload = t.shed_overload;
    shed_deadline = t.shed_deadline;
  }

let stats_to_json s =
  Json.Obj
    [
      ("submitted", Json.Int s.submitted);
      ("admitted", Json.Int s.admitted);
      ("served", Json.Int s.served);
      ("shed_overload", Json.Int s.shed_overload);
      ("shed_deadline", Json.Int s.shed_deadline);
    ]
