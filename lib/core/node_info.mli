(** The unit of information exchanged by Algorithm 2: a host id together
    with its distance labels (one per prediction tree of the ensemble).
    The labels are all a remote node needs to rank the host by predicted
    distance and to run Algorithm 1 locally, so this record is the entire
    "node information" payload of the aggregation protocol. *)

type t = {
  host : int;
  labels : Bwc_predtree.Label.t array;
}

val make : host:int -> labels:Bwc_predtree.Label.t array -> t

val dist : t -> t -> float
(** Median predicted tree distance across the ensemble. *)

val equal : t -> t -> bool
(** Host identity (labels are per-host, so ids suffice). *)

val compare_host : t -> t -> int
val pp : Format.formatter -> t -> unit
