(** The access-link bottleneck model (Sec. II-C, second evidence).

    Each host has an access-link capacity and the bandwidth between two
    hosts is the minimum of their capacities — the theoretical topology
    model for which the induced space is a {e perfect} tree metric
    (Ramasubramanian et al., MSR-TR-2008-124).  Used as a ground-truth
    tree-metric generator in tests. *)

val of_capacities : name:string -> float array -> Dataset.t
(** [of_capacities ~name caps] has [BW(u,v) = min caps.(u) caps.(v)].
    Capacities must be positive and finite. *)

val generate :
  rng:Bwc_stats.Rng.t -> ?mu:float -> ?sigma:float -> n:int -> unit -> Dataset.t
(** [generate ~rng ~mu ~sigma ~n ()] draws capacities from a log-normal
    distribution ([mu] and [sigma] in log-space; defaults give a median of
    ~55 Mbps with a heavy tail, a shape similar to PlanetLab access
    links). *)
