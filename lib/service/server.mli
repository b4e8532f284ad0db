(** The INDaaS audit daemon: protocol dispatch over the snapshot
    store, the request scheduler and the result cache.

    Method set (protocol v1):

    - [submit-deps] — create/update one source of one snapshot from
      Table 1 wire text; invalidates the affected snapshot's cache
      entries when the content digest changes.
    - [audit] — structural independence audit of one deployment over a
      snapshot; the result is byte-identical to the batch
      [indaas sia --json] report for the same DepDB/spec/seed.
    - [compare] — rank candidate deployments ([indaas compare]'s
      JSON).
    - [rg-query] — just the risk groups of a deployment, under the
      request's algorithm.
    - [stats] — snapshots, cache and scheduler counters.
    - [shutdown] — stop accepting input ({!serve} drains and returns).

    [audit], [compare] and [rg-query] take the fields of
    {!Indaas_sia.Params.t} under the names [servers] (or, for
    [compare], [candidates]: a list of server lists), [required],
    [algorithm], [rounds], [prob] and [seed], plus [snapshot]
    (default ["default"]). An absent field takes
    {!Indaas_sia.Params.default}'s value, except [seed], which
    defaults to the daemon's {!config} seed. Algorithm names are
    {!Indaas_sia.Params.algorithms}. Any other key is ignored,
    including the retired [engine] and [max-family]: a request that
    still carries them gets the bare request's bytes and cache
    entry.

    Every request is dispatched inside a [service.request] span and
    counted; cache and scheduler activity surfaces as
    [service.cache.*] / [service.sched.*] metrics. Whenever nothing is
    shed, the response bytes are a deterministic function of (request
    bytes, seed), however the transport splits them: byte-identical
    across runs, same contract as chaos/obs. Which requests are shed
    depends on which frames arrive in one read. *)

type config = {
  seed : int;  (** default audit seed when a request states none *)
  max_queue : int;
  default_deadline : float option;  (** virtual seconds, queue wait *)
  cache_capacity : int;
}

val default_config : config
(** Seed {!Indaas_sia.Params.default}'s (42), queue 64, no deadline,
    1024 cache entries. *)

type t

val create : ?config:config -> unit -> t

val clock : t -> Indaas_resilience.Vclock.t
(** The scheduler's virtual clock — point the obs registry's clock
    here for byte-identical traces. *)

val handle : t -> Frame.request -> Frame.response
(** Dispatch one request immediately, bypassing the queue (used by
    tests and benchmarks). Never raises: failures come back as error
    responses. *)

val serve : t -> Transport.t -> unit
(** Serve one stream until end of input (or a [shutdown] request).
    After each read, every frame the bytes so far complete is admitted
    through the scheduler and answered, in arrival order, before
    [serve] blocks for the next read; the queue bound and deadlines
    therefore apply to the frames that arrive together. Answers the
    server gives itself — a malformed frame's [bad-frame] error, the
    [shutdown] reply — wait for the queued work first. A corrupt frame
    stream, or a truncated frame at end of input, earns a final
    [id = -1] [bad-frame] error; input after a [shutdown] is dropped.
    A response whose payload exceeds {!Frame.max_frame} is answered
    with a [response-too-large] error for its id, and serving goes
    on. Closes the transport before returning. *)

val scheduler : t -> Scheduler.t
val cache_stats : t -> Cache.stats
val stats_json : t -> Indaas_util.Json.t
(** The [stats] method's payload. *)
