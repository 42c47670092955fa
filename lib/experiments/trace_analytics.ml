module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Ensemble = Bwc_predtree.Ensemble
module Fault = Bwc_sim.Fault
module Protocol = Bwc_core.Protocol
module Detector = Bwc_core.Detector
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Causal = Bwc_obs.Causal

type kind_row = {
  kind : string;
  sends : int;
  bytes : int;
  delivered : int;
  dropped : int;
}

type row = {
  scenario : string;
  rounds : int;
  messages : int;
  delivered : int;
  dropped : int;
  query_hops : int;
  total_bytes : int;
  cp_len : int;
  cp_rounds : int;
  frac_explained : float;
  cp_kinds : string;
  send_sum_matches : bool;
  kinds : kind_row list;
}

type output = { dataset : string; n : int; seed : int; rows : row list }

let row_of ~scenario ~engine_sends report =
  let kinds =
    List.map
      (fun (k, (s : Causal.kind_stat)) ->
        {
          kind = Trace.kind_to_string k;
          sends = s.k_sends;
          bytes = s.k_bytes;
          delivered = s.k_delivered;
          dropped = s.k_dropped;
        })
      report.Causal.by_kind
  in
  {
    scenario;
    rounds = report.Causal.rounds;
    messages = report.Causal.messages;
    delivered = report.Causal.delivered_events;
    dropped = report.Causal.dropped_events;
    query_hops = report.Causal.query_hops;
    total_bytes = report.Causal.total_bytes;
    cp_len = List.length report.Causal.critical_path;
    cp_rounds = report.Causal.cp_rounds;
    frac_explained = report.Causal.frac_explained;
    cp_kinds =
      String.concat "-"
        (List.map
           (fun (h : Causal.hop) -> Trace.kind_to_string h.h_kind)
           report.Causal.critical_path);
    send_sum_matches = Causal.engine_sends report = engine_sends;
    kinds;
  }

(* every scenario rebuilds the same system (same ensemble and protocol
   seeds) with an unbounded trace sink; the only variation is the fault
   plan, so the per-scenario attribution tables are directly comparable *)
let build_system ?faults ?detector ~n_cut ~class_count ~max_rounds ~seed dataset
    =
  let space = Dataset.metric dataset in
  let classes = Bwc_core.Classes.of_percentiles ~count:class_count dataset in
  let metrics = Registry.create () in
  let trace = Trace.create () in
  let ens = Ensemble.build ~rng:(Rng.create (seed + 1)) ~metrics space in
  let p =
    Protocol.create ~rng:(Rng.create (seed + 2)) ~n_cut ?faults ?detector
      ~metrics ~trace ~classes ens
  in
  let (_ : int) = Protocol.run_aggregation ~max_rounds p in
  (ens, p, trace)

let recovery_events ?(victims = 2) ?(queries = 40) ?(max_rounds = 400)
    ?(n_cut = 4) ?(class_count = 5) ~seed dataset =
  let lo, hi = Workload.bandwidth_range dataset in
  let ens, p, trace =
    build_system ~detector:Detector.default_config ~n_cut ~class_count
      ~max_rounds ~seed dataset
  in
  let chosen = Robustness.pick_victims ~rng:(Rng.create (seed + 11)) ens victims in
  let vcount = List.length chosen in
  List.iter (Protocol.crash_host p) chosen;
  let rec heal i =
    if i < max_rounds then begin
      let active = Protocol.run_round p in
      if active || Protocol.repairs_run p < vcount then heal (i + 1)
    end
  in
  heal 0;
  let live = Array.of_list (Ensemble.members ens) in
  let (_ : float) = Robustness.measure_rr_at ~seed:(seed + 3) ~queries ~hosts:live ~lo ~hi p in
  (Trace.events trace, Protocol.messages_sent p)

let run ?(drop = 0.1) ?(duplicate = 0.05) ?(jitter = 1) ?(victims = 2)
    ?(queries = 40) ?(max_rounds = 400) ?(n_cut = 4) ?(class_count = 5) ~seed
    dataset =
  let n = Dataset.size dataset in
  let lo, hi = Workload.bandwidth_range dataset in
  let all_hosts = Array.init n Fun.id in
  let finish ~scenario p trace =
    let (_ : float) =
      Robustness.measure_rr_at ~seed:(seed + 3) ~queries ~hosts:all_hosts ~lo ~hi p
    in
    let report = Causal.analyze (Trace.events trace) in
    row_of ~scenario ~engine_sends:(Protocol.messages_sent p) report
  in
  let clean =
    let _, p, trace =
      build_system ~n_cut ~class_count ~max_rounds ~seed dataset
    in
    finish ~scenario:"clean" p trace
  in
  let faulty =
    let faults_metrics = Registry.create () in
    let faults =
      Fault.create ~drop ~duplicate ~jitter ~metrics:faults_metrics
        ~rng:(Rng.create (seed + 7)) ()
    in
    let _, p, trace =
      build_system ~faults ~n_cut ~class_count ~max_rounds ~seed dataset
    in
    finish ~scenario:"faulty" p trace
  in
  let recovery =
    let events, engine_sends =
      recovery_events ~victims ~queries ~max_rounds ~n_cut ~class_count ~seed
        dataset
    in
    row_of ~scenario:"recovery" ~engine_sends (Causal.analyze events)
  in
  ({ dataset = dataset.Dataset.name; n; seed; rows = [ clean; faulty; recovery ] }
    : output)

let b v = if v then "yes" else "no"

let print (output : output) =
  Report.table
    ~title:
      (Printf.sprintf
         "Trace analytics: critical path and attribution -- %s n=%d seed=%d"
         output.dataset output.n output.seed)
    ~headers:
      [
        "scenario"; "rounds"; "msgs"; "delivered"; "dropped"; "qhops"; "bytes";
        "cp len"; "cp rds"; "frac"; "sum ok";
      ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Report.i r.rounds;
           Report.i r.messages;
           Report.i r.delivered;
           Report.i r.dropped;
           Report.i r.query_hops;
           Report.i r.total_bytes;
           Report.i r.cp_len;
           Report.i r.cp_rounds;
           Report.f3 r.frac_explained;
           b r.send_sum_matches;
         ])
       output.rows);
  List.iter
    (fun r ->
      Report.table
        ~title:
          (Printf.sprintf "Byte budget by kind -- %s (critical path: %s)"
             r.scenario
             (if r.cp_kinds = "" then "<empty>" else r.cp_kinds))
        ~headers:[ "kind"; "sends"; "bytes"; "delivered"; "dropped" ]
        (List.filter_map
           (fun k ->
             if k.sends = 0 && k.dropped = 0 then None
             else
               Some
                 [
                   k.kind; Report.i k.sends; Report.i k.bytes;
                   Report.i k.delivered; Report.i k.dropped;
                 ])
           r.kinds))
    output.rows

let save_csv (output : output) path =
  Report.save_csv ~path
    ~headers:
      [
        "scenario"; "rounds"; "messages"; "delivered"; "dropped"; "query_hops";
        "total_bytes"; "cp_len"; "cp_rounds"; "frac_explained"; "cp_kinds";
        "send_sum_matches";
      ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Report.i r.rounds;
           Report.i r.messages;
           Report.i r.delivered;
           Report.i r.dropped;
           Report.i r.query_hops;
           Report.i r.total_bytes;
           Report.i r.cp_len;
           Report.i r.cp_rounds;
           Report.f3 r.frac_explained;
           r.cp_kinds;
           b r.send_sum_matches;
         ])
       output.rows)

let save_kinds_csv (output : output) path =
  Report.save_csv ~path
    ~headers:[ "scenario"; "kind"; "sends"; "bytes"; "delivered"; "dropped" ]
    (List.concat_map
       (fun r ->
         List.map
           (fun k ->
             [
               r.scenario; k.kind; Report.i k.sends; Report.i k.bytes;
               Report.i k.delivered; Report.i k.dropped;
             ])
           r.kinds)
       output.rows)
