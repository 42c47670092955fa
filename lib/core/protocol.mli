(** The decentralized clustering system (Sec. III-B).

    Every host participating in the prediction framework runs two
    background aggregation mechanisms over its anchor-tree neighborhood:

    - {b Algorithm 2} ([DynAggrNodeInfo]): for each neighbor [m], host [x]
      maintains [aggrNode[m]] — the [n_cut] hosts closest to [x] among
      everything reachable via [m];
    - {b Algorithm 3} ([DynAggrMaxCluster]): for each neighbor [m] and
      each distance class [l], host [x] maintains [aggrCRT[m][l]] — the
      maximum cluster size achievable in the clustering space of any host
      reachable via [m].  The per-class row for [x] itself is the best
      cluster [x] can build from its own aggregated neighborhood.

    Queries ({b Algorithm 4}, [ProcessQuery]) may be submitted to any
    host: a host answers from its own clustering space when its own CRT
    row allows, otherwise forwards towards a neighbor whose CRT column
    promises a large-enough cluster, never returning to the sender.

    The implementation runs on the round-based {!Bwc_sim.Engine}; each
    round every host consumes its inbox, updates its tables, and
    (re)propagates to neighbors when something changed, so a static
    network reaches quiescence and {!run_aggregation} detects it.

    Each host keeps one {e link} per anchor-tree neighbor: the
    neighbor's [aggrNode]/[aggrCRT] as last received, the seq/ACK/epoch
    delivery state in both directions and, with a detector, the
    neighbor's lease.  Links are rebuilt only when the neighborhood
    changes (repair, {!refresh_topology}).

    Delivery is made reliable against an unreliable network
    ({!Bwc_sim.Fault}): every update carries a per-link sequence number,
    receivers acknowledge the highest sequence seen and discard
    duplicates and out-of-order copies (the merge is idempotent, which
    is asserted), and senders retransmit unacknowledged updates on a
    timeout (3 rounds).  The aggregation therefore converges to the same
    fixed point under message loss, duplication, reordering jitter and
    crash/restart windows as on a reliable network — it just takes more
    rounds and messages (tested; measured by the robustness experiment).
    Retransmission is bounded: after 16 fruitless tries the sender
    {e gives up} on the peer (counted under [protocol.give_up]) so
    quiescence never hinges on a host that is gone for good; any later
    sign of life from the peer revives the retired update.

    With a [detector] config the protocol additionally runs the
    {!Detector} lease policy on every link (heartbeats fill silent
    links) and {e self-heals}: a confirmed-dead node is evicted from the
    ensemble ({!Bwc_predtree.Ensemble.evict_host},
    orphaned overlay children regraft to their grandparent), aggregate
    state about it is invalidated only at its ex-neighbors and along the
    regraft points' root paths (epoch-versioned links fence off in-flight
    state from before the repair), and the aggregation re-converges
    incrementally — no global rebuild, no full re-propagation.  Queries
    detour around {e suspected} (not yet confirmed) directions. *)

type t

val create :
  rng:Bwc_stats.Rng.t ->
  ?n_cut:int ->
  ?faults:Bwc_sim.Fault.t ->
  ?detector:Detector.config ->
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  classes:Classes.t ->
  Bwc_predtree.Ensemble.t ->
  t
(** [n_cut] (default 10) bounds the per-neighbor node-information payload
    — the decentralization knob of Sec. IV-B.  [faults] (default
    {!Bwc_sim.Fault.none}) injects message loss, duplication, jitter,
    partitions and crash/restart windows; the aggregation converges to
    the same tables regardless (tested), it just takes more rounds.  An
    update stays unacknowledged for 3 rounds before it is retransmitted,
    and the sender gives up on the peer after 16 fruitless
    retransmissions.  With a fault plan that never heals (a permanent
    crash or partition) and no [detector], the survivors give up and
    quiesce without the dead peer's state repaired; with a [detector]
    (off when omitted; see {!Detector.default_config}) the dead peer is
    detected, evicted and healed around.  The detector draws its
    (optional) jitter from a split of [rng]; omitting [detector] leaves
    the RNG stream — and therefore detector-less runs — untouched.

    [metrics] is the registry the protocol {e and} its engine write to
    ([protocol.retransmissions], [protocol.dup_suppressed],
    [protocol.stale_discarded], [protocol.give_up],
    [protocol.heartbeats], [protocol.epoch_discarded],
    [protocol.repairs], [protocol.regrafts], the [protocol.unacked]
    gauge, the [query.hops] histogram, [query.retries],
    [query.hits]/[query.misses], plus the engine's [engine.*] and the
    detector's [detector.*] series); a private registry is allocated
    when omitted.  Pass the same registry to {!Bwc_sim.Fault.create} and
    {!Bwc_predtree.Ensemble.build} to snapshot the whole stack at once.
    [trace] enables structured event emission — engine-level
    send/deliver/drop events plus protocol-level [Retransmit],
    [Query_hop], [Suspect], [Confirm_dead], [Regraft] and [Quiesce] —
    and is off when omitted. *)

val n : t -> int
(** Current member count. *)

val n_cut : t -> int
val classes : t -> Classes.t
val framework : t -> Bwc_predtree.Ensemble.t

val run_aggregation : ?max_rounds:int -> t -> int
(** Runs rounds until quiescent (returns the number of rounds) or until
    [max_rounds] (default [4 * n]). *)

val run_round : t -> bool
(** A single round; [true] while still active.  With a detector, the
    round also advances lease expiry and immediately repairs any nodes
    confirmed dead this round, and activity means: some node's state
    changed, updates await acks, or a detector lease is running out
    (heartbeat traffic alone does not count as activity). *)

val crash_host : t -> int -> unit
(** Silently kills a member host: it stops stepping, and traffic to and
    from it is purged/dropped.  Nothing else is told — with a detector
    the survivors find out through lease expiry; without one they give
    up on it after 16 fruitless retransmissions.  Emits a [Crash] trace event.
    Raises [Invalid_argument] for non-members. *)

val repair : t -> dead:int list -> unit
(** Manually evict the given (presumed dead) members and heal around
    them, exactly as detector-driven repair would: ensemble eviction with
    grandparent regrafts, link-epoch bump, invalidation of the dead
    nodes' state at their ex-neighbors, root-path dirty marking.
    Re-converge with further rounds.  Non-members in [dead] are ignored.
    This is the incremental alternative to
    {!Bwc_predtree.Ensemble.evict_host} + {!refresh_topology}. *)

val set_on_evict : t -> (int -> unit) -> unit
(** Registers an observer called with each member evicted by {!repair}
    (manual or detector-driven), after the ensemble and overlay have been
    healed.  Lets owners of derived per-membership structures — e.g. a
    maintained {!Find_cluster.Index} — apply the eviction as an O(n^2)
    delta instead of rebuilding.  The previous observer is replaced;
    [create] installs a no-op. *)

val lease_pending : t -> bool
(** [true] while some link's lease is running towards expiry (a peer has
    been silent past the heartbeat horizon; see {!Detector.pending}).
    Always [false] without a detector. *)

val epoch : t -> int
(** The current repair epoch (bumped once per repair batch; 0 before any
    repair). *)

val routing_suspects : t -> at:int -> int -> bool
(** [routing_suspects t ~at h]: whether the lease on [at]'s link to [h]
    is suspected (or confirmed dead), i.e. whether query routing at [at]
    should detour around [h].  Always [false] without a detector, for a
    non-neighbor [h] and for a non-member [at]. *)

val query :
  ?policy:[ `Best_crt | `First ] ->
  t -> at:int -> k:int -> cls:int -> Query.result
(** Algorithm 4: submit the query for [k] hosts of class [cls] at host
    [at].  The paper forwards to "any" neighbor whose CRT column promises
    a big-enough cluster; [`Best_crt] (default) picks the most promising
    direction, [`First] the first qualifying neighbor (the routing-policy
    ablation compares them).

    Robustness: a hop to a dead or partitioned neighbor falls back to the
    next qualifying neighbor; a hop over a lossy link is retried up to
    2 times before falling back; with a detector, directions whose lease
    is suspected become last resorts (tried only when every healthy
    direction fails).  The total number of forwardings is capped at [n],
    which a simple tree path never reaches.  A query submitted at a dead host is an
    immediate miss. *)

val query_bandwidth :
  ?policy:[ `Best_crt | `First ] ->
  t -> at:int -> k:int -> b:float -> Query.result
(** Convenience: maps [b] to the cheapest class that guarantees it; a miss
    when no class covers [b]. *)

val clustering_space : t -> int -> Node_info.t array
(** [V_x]: the host itself plus everything aggregated from its neighbors
    (the space Algorithms 3 and 4 cluster in), in discovery order: the
    host first, then each link's [aggrNode] in link order, a host
    repeated on a later link skipped.

    Each host caches [V_x] with its pairwise label distances (ensemble
    medians) in one square matrix.  Own-row recomputes, local query
    answers and propNode selection read it; the cache is dropped when a
    link's [aggrNode] changes, when the links are rebuilt, on restore
    and by {!mark_all_dirty}, and refilled in place on the next read.
    The result is a copy. *)

val check_vx_cache : t -> int -> (unit, string) result
(** Check hook for tests: fills host [x]'s [V_x] cache if it was
    dropped, then compares it with a from-scratch recomputation — the
    cached infos with a fresh gather (host and labels), every matrix
    cell bit for bit with the ensemble median it stands for, and the
    propNode sent on each link with a selection ranked by fresh medians.
    [Error] names the first disagreement. *)

val neighbors : t -> int -> int list
(** [neighbors t x]: the peers of [x]'s links in the order they are
    served (parent first, then children in the anchor's order) — always
    {!Bwc_predtree.Ensemble.anchor_neighbors} of the framework as of the
    last repair or {!refresh_topology}. *)

val aggregated_nodes : t -> int -> int -> Node_info.t list
(** [aggregated_nodes t x m]: [x]'s [aggrNode[m]] — the node information
    received from neighbor [m] (Algorithm 2's table; empty before any
    aggregation round).  Raises [Not_found] if [m] is not a neighbor of
    [x]. *)

val crt_row : t -> int -> int -> int array
(** [crt_row t x v]: [x]'s CRT column for neighbor (or self) [v]; one
    entry per class.  Raises [Not_found] if [v] is neither [x] nor a
    neighbor of [x]. *)

val max_reachable : t -> int -> cls:int -> int
(** The largest cluster size host [x] believes exists anywhere (its own
    row and every neighbor column). *)

val metrics : t -> Bwc_obs.Registry.t
(** The registry the protocol and its engine write to (the [?metrics]
    argument of {!create}, or the private registry).  Snapshot it with
    {!Bwc_obs.Registry.snapshot} to read every series at once. *)

val messages_sent : t -> int
val rounds_run : t -> int

val retries : t -> int
(** Timeout-triggered retransmissions of unacknowledged updates
    ([protocol.retransmissions]). *)

val duplicates_suppressed : t -> int
(** Updates received with an already-seen sequence number and discarded
    ([protocol.dup_suppressed]). *)

val stale_discarded : t -> int
(** Updates received out of order (older than the applied state) and
    discarded ([protocol.stale_discarded]). *)

val give_ups : t -> int
(** Updates retired unacknowledged after 16 fruitless
    retransmissions ([protocol.give_up]). *)

val heartbeats_sent : t -> int
(** Detector heartbeats sent over idle links ([protocol.heartbeats]). *)

val epoch_discarded : t -> int
(** Messages fenced off by the link-epoch guard — in-flight leftovers
    from before a self-healing link reset ([protocol.epoch_discarded]). *)

val repairs_run : t -> int
(** Confirmed-dead nodes evicted and healed around
    ([protocol.repairs]). *)

val regrafts_applied : t -> int
(** Orphaned overlay children re-attached to their grandparent during
    repair ([protocol.regrafts]). *)

val pending_unacked : t -> int
(** Updates still awaiting acknowledgement and not yet given up (0 at
    quiescence). *)

val current_round : t -> int
(** The engine's round clock (survives snapshot/restore, unlike
    {!rounds_run} which counts rounds stepped by this process). *)

(** {2 Persistence}

    The dump captures the durable per-node state only.  In-flight engine
    traffic is deliberately absent: a whole-system crash loses the
    network, and that is exactly the loss the seq/ACK + retransmission
    layer already recovers from — restored unacked out-entries resume
    their resend timers.  Node infos are not dumped either; they are
    re-derived from the ensemble, which must be restored alongside (see
    {!Bwc_predtree.Ensemble.of_dump}).  Metrics counters restart from
    zero. *)

type out_dump = {
  o_epoch : int;
  o_seq : int;
  o_prop_node : Node_info.t list;
  o_prop_crt : int array;
  o_sent_round : int;
  o_tries : int;
  o_acked : bool;
  o_gave_up : bool;
}

type link_dump = {
  l_peer : int;
  l_aggr_node : Node_info.t list option;  (** [None]: nothing received yet *)
  l_aggr_crt : int array option;
  l_out : out_dump option;  (** the last update sent, if any *)
  l_seen_seq : int;  (** highest sequence number received; [-1] for none *)
  l_epoch : int;  (** link repair epoch *)
  l_last_sent : int;  (** round of the last send; [-1] for never *)
  l_lease : Detector.lease option;  (** present iff a detector runs *)
}

type node_dump = {
  nd_id : int;
  nd_active : bool;
      (** engine liveness — a crashed-but-not-yet-evicted member
          restores as crashed *)
  nd_dirty : bool;
  nd_own_row : int array;
  nd_links : link_dump list;
      (** exactly the anchor neighbors, ascending peer id, each once *)
}

type dump = {
  d_n_cut : int;
  d_rounds : int;
  d_epoch : int;
  d_engine_round : int;
  d_engine_rng : int64;
  d_nodes : node_dump list;  (** ascending host id, members only *)
  d_detector : (Detector.config * int64) option;
      (** the detector config and its jitter generator's state *)
}

val dump : t -> dump

val of_dump :
  ?faults:Bwc_sim.Fault.t ->
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  classes:Classes.t ->
  Bwc_predtree.Ensemble.t ->
  dump ->
  t
(** Reconstructs a live protocol over the given (already restored)
    ensemble.  The engine restarts at the dumped round with the dumped
    RNG state, so a same-seed run resumed from a snapshot at quiescence
    is indistinguishable from one that never crashed.  Validates
    membership agreement with the ensemble, that each node lists exactly
    its anchor neighbors' links in ascending order (so the dump is
    canonical: [dump (of_dump d) = d]), arity of CRT rows and label
    vectors, clock/epoch bounds, lease presence and slack range; raises
    [Invalid_argument] on any violation.  [pending_unacked] is
    recomputed from the out-entries, never trusted from the file. *)

val mark_all_dirty : t -> unit
(** Forces every host to recompute and repropagate — used after the
    underlying framework is refreshed (dynamic network conditions).
    It also drops every host's [V_x] cache (see {!clustering_space}), so
    the recompute retakes every label distance: a round forced here
    costs what a round with fresh inputs costs. *)

val refresh_topology : t -> unit
(** Re-reads membership, labels and anchor neighborhoods from the
    framework (after joins, leaves, {!Bwc_predtree.Framework.refresh_host}
    or a rebuild), clears stale aggregation state, and marks everything
    dirty.  Aggregation then reconverges with further rounds.  Every
    link is rebuilt; with a detector each gets a fresh lease renewed as
    of the current round.  Functions taking a host raise
    [Invalid_argument] for non-members. *)
