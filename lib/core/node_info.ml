type t = {
  host : int;
  labels : Bwc_predtree.Label.t array;
}

let make ~host ~labels = { host; labels }
let dist a b = Bwc_predtree.Ensemble.label_dist a.labels b.labels

let equal a b = a.host = b.host
let compare_host a b = compare a.host b.host

let pp ppf t =
  Format.fprintf ppf "node %d (depth %d)" t.host
    (if Array.length t.labels = 0 then 0 else Bwc_predtree.Label.depth t.labels.(0))
