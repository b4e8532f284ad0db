(** Binary decision diagrams over fault graphs.

    The classic fault-tree analysis literature the paper builds on
    (Vesely et al.; Ramamoorthy et al.) is dominated today by BDD
    methods: compile the top event's structure function into a reduced
    ordered BDD, then compute the exact top-event probability in time
    linear in the BDD — no 2^m inclusion–exclusion over minimal risk
    groups, no Monte-Carlo error. It is the one engine behind every
    [Pr(T)] and importance the audit and importance paths report; the
    ablation benchmark compares it with the inclusion–exclusion and
    Monte-Carlo baselines of {!Probability}.

    Variables are the graph's basic events, ranked in
    {!Graph.basic_ids} order (topological position, which is ascending
    id). Hash-consing keeps the diagram reduced; [apply] is
    memoized per operation.

    {b Storage.} A manager keeps its nodes in flat [int array]s, and
    its four triple-keyed tables (BDD and ZDD hash-consing, the
    [apply] memo and the [union]/[without] memo) are {!Flat_table}s:
    open addressing over one [int array], three key ints and one value
    per slot. The [minsol], {!probability} and {!node_count} memos are
    arrays indexed by node id. No lookup on the compile or minimize
    path boxes a key or allocates. A fresh manager's first arrays and
    tables are sized from the graph's node count.

    {b Reuse.} {!minimal_risk_groups} and {!graph_probability} never
    hand out their manager, so each domain keeps one spare manager
    ([Domain.DLS]) for them: a call takes the spare, resets it in time
    linear in its tables, and puts it back afterwards. A nested or
    concurrent call in the same domain finds the spare taken and
    allocates a fresh manager; a call that raises drops it. A spare
    whose arrays grew past {!retention_cap_bytes} is dropped, not kept,
    so the memory a domain retains between calls is bounded. {!of_graph}
    always returns a fresh manager, which the caller owns. *)

type manager
type node

val of_graph : Graph.t -> manager * node
(** Compiles the top event into a fresh manager. AND/OR/k-of-n gates
    are supported. *)

val retention_cap_bytes : int
(** 16 MiB: the largest {!footprint} a domain's spare manager may have
    and still be kept for the next call. *)

val footprint : manager -> int
(** Bytes held by the manager's node arrays and tables. *)

val size : manager -> int
(** Unique decision nodes allocated in the manager. *)

val node_count : manager -> node -> int
(** Decision nodes reachable from [node]. *)

val probability : manager -> node -> prob_of:(Graph.node_id -> float) -> float
(** Exact [Pr(top event)] under independent basic-event failure
    probabilities. *)

val graph_probability : Graph.t -> float
(** Convenience: compile (into the domain's spare manager) and
    evaluate with the graph's attached probabilities. Raises
    {!Probability.Missing_probability} if a reachable basic event
    has none. *)

val of_family : manager -> Cutset.rg list -> node
(** The union of the family's RG events — the OR over its RGs of the
    AND of each RG's basic events — compiled in the manager's variable
    order. Its {!probability} is the exact [Pr(∪ family)], with no
    2^m inclusion–exclusion terms. Raises [Invalid_argument] on an
    event that is not a reachable basic event of the compiled graph. *)

(** {1 Minimal risk groups}

    The second RG engine (besides {!Cutset.minimal_risk_groups}):
    compile the top event into a BDD, then extract its minimal
    solutions with Rauzy's [without]/[minsol] pass. Families are held
    in a zero-suppressed sub-store of the manager, and [minsol],
    [union] and [without] are all memoized there, so shared fault-graph
    structure is minimized once — no explicit family enumeration until
    the final read-out. Sound for the monotone functions fault graphs
    denote (AND/OR/k-of-n over positive events). *)

val risk_groups : ?max_size:int -> manager -> node -> Graph.node_id array list
(** All minimal RGs of [node], a node of this manager (e.g. the top
    event {!of_graph} returned), in {!Cutset.sort_family} order — the
    same family (and order) the enumeration engine returns.

    The order comes from the read-out itself, with no sort: variable
    ranks follow {!Graph.basic_ids}, which lists basic events in
    ascending id order, so one depth-first pass over the minimal
    family that takes each node's high branch before its low one
    yields each RG as an ascending id array, and RGs of one size in
    lexicographic order. Bucketing the RGs by size then gives the
    canonical order. The contract rests on that ascending rank order.

    @param max_size drop RGs larger than this bound from the result:
    the read-out does not descend past this depth (the symbolic pass
    itself is unbounded). *)

val minimal_risk_groups :
  ?max_size:int -> Graph.t -> Graph.node_id array list
(** {!risk_groups} of the top event, compiled into the domain's spare
    manager, under an [rg.bdd] span. *)
