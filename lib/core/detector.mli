(** Heartbeat/lease failure-detection policy for anchor-tree links.

    Every protocol link carries one {!lease}: the round its owner last
    heard from the neighbour (see {!Protocol}, which keeps the lease on
    the link beside the rest of the per-link state).  Any received
    protocol message (update, ack or dedicated heartbeat) renews it.  A
    peer silent for [suspect_after] rounds becomes {e suspected} —
    queries detour around it but nothing is torn down; after
    [confirm_after] rounds of silence it is {e confirmed dead} and handed
    to the self-healing repair path.

    This module is the policy only: config validation, lease creation
    and the Alive → Suspected → Confirmed transition over one lease.
    The caller decides which leases to scan and in which order.  The
    only randomness is the optional per-lease [jitter] slack drawn from
    the seeded generator passed to {!create} (it staggers timeouts so
    repairs don't synchronise; [0] by default, keeping same-seed runs
    byte-identical). *)

type config = {
  heartbeat_every : int;
      (** send a heartbeat on a link idle this many rounds (>= 1) *)
  suspect_after : int;
      (** rounds of silence before suspicion; must exceed
          [heartbeat_every + 1] so one lost heartbeat cannot trigger it *)
  confirm_after : int;
      (** rounds of silence before the peer is confirmed dead; must
          exceed [suspect_after] *)
  jitter : int;  (** max extra per-lease slack on both thresholds (>= 0) *)
}

val default_config : config
(** [{ heartbeat_every = 2; suspect_after = 6; confirm_after = 10;
      jitter = 0 }]. *)

type state = Alive | Suspected | Confirmed

type lease = {
  mutable last_heard : int;  (** round of the last message from the peer *)
  mutable state : state;
  slack : int;  (** per-lease stretch of both thresholds, in [0, jitter] *)
}

type t
(** A configured detector: the config, the jitter generator, the
    [detector.*] counters and the trace sink. *)

val create :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  rng:Bwc_stats.Rng.t ->
  config ->
  t
(** Validates the config (see field docs; [Invalid_argument] otherwise).
    Registers the [detector.suspects] and [detector.confirms] counters
    in [metrics]; {!expire} emits [Suspect] / [Confirm_dead] trace
    events. *)

val config : t -> config

val rng_state : t -> int64
(** The jitter generator's state, for snapshots. *)

val lease : t -> round:int -> lease
(** A fresh [Alive] lease, renewed as of [round]; draws its slack from
    the jitter generator when [jitter > 0]. *)

val heard : lease -> round:int -> unit
(** Renew the lease: a message from the peer arrived at [round].  Clears
    suspicion — any sign of life revives the peer. *)

val suspects : lease -> bool
(** [true] iff the lease is [Suspected] or [Confirmed]: the owner should
    route around the peer. *)

val expire : t -> lease -> round:int -> watcher:int -> peer:int -> bool
(** Advance the lease at the end of [round]: [Alive] → [Suspected] after
    [suspect_after + slack] silent rounds, [Suspected] → [Confirmed]
    after [confirm_after + slack].  Counts and traces each transition
    (attributed to [watcher] observing [peer]) and returns [true] iff
    the peer was confirmed dead by this call. *)

val pending : t -> lease -> round:int -> bool
(** [true] while the lease is running towards expiry (the peer has been
    silent past the heartbeat horizon): the protocol must keep running
    rounds for the detector to resolve the silence either way. *)
