(** Request scheduling: a bounded FIFO queue with admission control
    and per-request deadlines on a virtual clock.

    The daemon sheds load instead of stalling. Admission refuses a
    request once [max_queue] admitted requests are still waiting
    ([overloaded]); at dispatch, a request whose virtual queueing
    delay already exceeds its deadline is shed unrun
    ([deadline-exceeded]). Both verdicts are answered at the request's
    turn in the queue, so answers keep arrival order. Execution
    advances the {!Indaas_resilience.Vclock} by the request's cost, so
    deadline arithmetic — like every other timestamp in the serving
    stack — is a deterministic function of the request stream. *)

module Vclock := Indaas_resilience.Vclock

type t

val create : ?max_queue:int -> ?default_deadline:float -> unit -> t
(** [max_queue] bounds the admitted requests waiting to run (default
    64; [Invalid_argument] if non-positive). [default_deadline]
    (virtual seconds, measured from admission to dispatch; negative is
    [Invalid_argument]) applies to requests that state none; absent by
    default, meaning no deadline. *)

val clock : t -> Vclock.t

val submit :
  t ->
  ?deadline:float ->
  cost:float ->
  run:(unit -> unit) ->
  shed:(reason:string -> unit) ->
  unit ->
  unit
(** Enqueue a job. [cost] is the virtual seconds its execution
    charges. When [max_queue] admitted jobs are already waiting, the
    job is refused: it is counted as [shed_overload] now, never runs,
    and its [shed ~reason:"overloaded"] fires at its turn in
    {!run_all}. *)

val run_all : t -> unit
(** Dispatch the queue in FIFO order: each admitted job either runs
    (advancing the clock by its cost) or, if its deadline expired
    while queued, its [shed ~reason:"deadline-exceeded"] fires
    instead; each refused job's [shed ~reason:"overloaded"] fires. A
    raising callback propagates its exception; jobs not yet dispatched
    remain queued. *)

type stats = {
  submitted : int;
  admitted : int;
  served : int;
  shed_overload : int;
  shed_deadline : int;
}

val stats : t -> stats
val stats_to_json : stats -> Indaas_util.Json.t
