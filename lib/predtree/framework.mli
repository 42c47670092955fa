(** The decentralized bandwidth prediction framework (Sec. II-D), i.e. the
    substrate the clustering system runs on: a prediction tree plus the
    anchor-tree overlay plus per-host distance labels.

    [build] simulates hosts joining one at a time in a random order,
    exactly as the real system would grow; all predicted distances are
    then pure functions of the distance labels, so every later consumer
    (Algorithms 2-4) only uses information a real node would hold
    locally. *)

type mode = {
  base : Builder.base_strategy;      (** how each joining host picks its base leaf *)
  end_search : Builder.end_strategy; (** how it finds the Gromov maximiser *)
}

val default_mode : mode
(** [`Random] base, budgeted [`Anchor_guided] end search: the
    decentralised configuration. *)

val centralized_mode : mode
(** [`Root] base, [`Exact] end search: what a centralised Sequoia-style
    builder does; used by the E8 ablation. *)

type t

val build :
  rng:Bwc_stats.Rng.t ->
  ?mode:mode ->
  ?members:int list ->
  ?metrics:Bwc_obs.Registry.t ->
  ?metric_labels:(string * string) list ->
  Bwc_metric.Space.t ->
  t
(** [build ~rng ~mode ~members space] inserts the member hosts (default:
    all [space.n] hosts) in a random order.  [space] provides the
    {e measured} distances (already under the rational transform).
    Construction and maintenance cost is charged to the
    [predtree.measurements] counter in [metrics] (a private registry when
    omitted), under [metric_labels] — e.g. [("tree", "0")] keeps the
    trees of an ensemble apart when they share one registry. *)

val size : t -> int
(** Current member count. *)

val members : t -> int list
(** Current members in insertion order (root first). *)

val is_member : t -> int -> bool
val tree : t -> Tree.t
val anchor : t -> Anchor.t
val label : t -> int -> Label.t
val insertion_order : t -> int array

val predicted : t -> int -> int -> float
(** Predicted distance [d_T(i, j)], computed from the two labels. *)

val predicted_bw : ?c:float -> t -> int -> int -> float
(** [BW_T(i, j) = C / d_T(i, j)]. *)

val measured : t -> int -> int -> float
(** The underlying measured distance (for evaluation only; a real node
    does not have this). *)

val measurements_total : t -> int
(** Total pairwise measurements charged during construction and
    maintenance — the cost the framework saves compared to full n-to-n
    probing ([predtree.measurements] under this framework's labels). *)

val relative_errors : ?c:float -> t -> float array
(** Per-pair relative bandwidth-prediction error
    [|BW - BW_T| / BW] over all host pairs — the statistic plotted as a
    CDF in Fig. 3(b,d). *)

val add_host : rng:Bwc_stats.Rng.t -> t -> int -> unit
(** A host joins the system: it is placed into the prediction tree and the
    anchor overlay exactly as during [build] — unless an earlier
    {!evict_host} left a dead host's geometry behind, in which case the
    framework is rebuilt from its members (a newcomer must never be
    anchored to a dead host).  The host must be a point of the
    underlying space and not yet a member. *)

val remove_host : rng:Bwc_stats.Rng.t -> t -> int -> unit
(** A host leaves.  When nothing anchors beneath it the leaf is spliced
    out in O(tree); otherwise (or for the overlay root) the framework is
    rebuilt from the remaining members.  Removing the last member is
    refused. *)

val evict_host : t -> int -> (int * int) list
(** Crash repair: drops a host that is {e gone}, without the global
    rebuild [remove_host] may fall back to.  Membership and the label are
    removed and the anchor overlay is repaired locally with
    {!Anchor.remove_node} (orphaned children regraft to the grandparent; a
    dead root promotes its smallest child).  Prediction-tree geometry the
    host anchored is retained, so surviving labels stay valid — the price
    of not being able to re-measure on a crash; the next {!add_host} or
    {!refresh_host} rebuilds it away.  Returns the
    [(child, new_parent)] overlay regrafts.  Evicting a non-member or the
    last member raises [Invalid_argument]. *)

val refresh_host : rng:Bwc_stats.Rng.t -> t -> int -> unit
(** Re-inserts one host using current measurements (network conditions
    changed).  Falls back to removing and re-adding; if the host anchors
    other subtrees, or an eviction left dead geometry behind, the whole
    framework is rebuilt with the original insertion order. *)

val anchor_neighbors : t -> int -> int list
(** Overlay neighborhood of a host. *)

(** {2 Persistence} *)

type dump = {
  d_mode : mode;
  d_tree : Tree.dump;
  d_anchor : Anchor.dump;
  d_labels : (int * Label.t) list;  (** ascending host id *)
  d_rev_order : int list;  (** reverse insertion order, newest first *)
}

val dump : t -> dump

val of_dump :
  ?metrics:Bwc_obs.Registry.t ->
  ?metric_labels:(string * string) list ->
  Bwc_metric.Space.t ->
  dump ->
  t
(** Reconstructs the framework over [space] (the measured metric the dump
    was built on; the dump itself carries no distance function).  The
    measurement counter restarts at zero — a restore performs no probes.
    Validates label geometry and the agreement of membership across
    labels, overlay and insertion order; raises [Invalid_argument] on any
    violation. *)
