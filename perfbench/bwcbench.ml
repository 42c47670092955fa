(* End-to-end and per-layer wall-clock benchmark of the bwclusterd
   request pipeline.

   This program plays bwclusterd's transport in-process, in the order
   bin/bwclusterd.ml uses: request lines go into Reactor.handle_line,
   then Reactor.tick runs, every response goes through Wire.render, and
   a due snapshot is written with Lifecycle.snapshot.  Ticks are unpaced
   (the next starts when the previous returns): under bwclusterd's
   20 ms pacing, latency is the tick quantum and throughput is the work
   budget per tick, which measures admission policy, not code speed.

   Load is a closed loop of [clients] logical connections in one thread.
   A client sends its next line on the tick after its previous response,
   so the request stream is a function of the workload seed alone:
   counts, transcripts and allocation repeat exactly and only timings
   vary.  A run replays the same stream from a fresh cold start several
   times (repeats) and reports medians over them.

   Usage (normally through run.py, which builds this executable):
     bwcbench.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--holdout-seed M] [--rev REV] [--src DIGEST] [--scratch DIR]
   The last stdout line is the result object; the line before it holds
   provenance.  Exit code 1 means a correctness-gate violation. *)

module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset
module Space = Bwc_metric.Space
module Bandwidth = Bwc_metric.Bandwidth
module Dynamic = Bwc_core.Dynamic
module Protocol = Bwc_core.Protocol
module Find_cluster = Bwc_core.Find_cluster
module Registry = Bwc_obs.Registry
module Snapshot = Bwc_persist.Snapshot
module Codec = Bwc_persist.Codec
module Reactor = Bwc_daemon.Reactor
module Wire = Bwc_daemon.Wire
module Lifecycle = Bwc_daemon.Lifecycle

let clock = Unix.gettimeofday

(* ----- the machine's memory speed ----- *)

(* On a shared 2-vCPU VM the host's load changes how fast this program
   runs by up to 35% within a minute, while the speed of a
   dependent-multiply loop varies a third as much and a second busy
   thread inside the VM does not move it at all.  What tracks the
   drift is the time of a random read far past L2: over 20 s windows
   of one run, throughput spread over 23% of its median and throughput
   times that read time over 8%.  So every repeat is bracketed by a
   read-time probe, and the end-to-end timings are reported at a fixed
   reference read time.  The probe is the benchmark's own code, so a
   change to the program moves the scaled figures as it moves the
   wall-clock ones; both are printed. *)
module Machine = struct
  let words = 4 * 1024 * 1024 (* 32 MiB, outside the OCaml heap *)
  let reads = 3_000_000

  (* ns per read on a lightly loaded 2-vCPU Xeon VM, where scaled and
     measured timings are then close *)
  let ref_read_ns = 6.

  let table =
    let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
    Bigarray.Array1.fill t 1;
    t

  (* mean ns per read of [reads] reads at pseudo-random indices *)
  let read_ns () =
    let t = clock () in
    let j = ref 7 and s = ref 0 in
    for _ = 1 to reads do
      j := ((!j * 1103515245) + 12345) land (words - 1);
      s := !s + Bigarray.Array1.unsafe_get table !j
    done;
    ignore (Sys.opaque_identity !s);
    (clock () -. t) *. 1e9 /. float_of_int reads
end

(* ----- fixed set-up: bwclusterd's defaults ----- *)

let dataset_seed = 1 (* bwclusterd --seed *)
let hosts = 120 (* hp-small, every host (no --hosts subset) *)
let clients = 8 (* matches Reactor.default_config.work_budget *)
let snapshot_keep = 3 (* bwclusterd --keep *)

(* bwclusterd's config, except that snapshots come only from explicit
   SNAPSHOT requests: its 500-tick cadence would put a 20-40 ms write
   into every workload and swamp the ones that must not touch persist *)
let config =
  { Reactor.default_config with Reactor.snapshot_every = None; seed = dataset_seed }

let load_dataset () =
  Bwc_dataset.Planetlab.generate ~rng:(Rng.create dataset_seed) ~name:"HP-like-small"
    { Bwc_dataset.Planetlab.hp_target with n = hosts }

(* ----- violations of the correctness gate ----- *)

let violations = ref 0

let violate fmt =
  Printf.ksprintf
    (fun msg ->
      incr violations;
      if !violations <= 20 then prerr_endline ("perfbench: violation: " ^ msg))
    fmt

(* ----- statistics ----- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0.; n = 0 }

  let push s x =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let sorted s =
    let a = Array.sub s.a 0 s.n in
    Array.sort Float.compare a;
    a

  let sum s =
    let t = ref 0. in
    for i = 0 to s.n - 1 do
      t := !t +. s.a.(i)
    done;
    !t

  let mean s = if s.n = 0 then 0. else sum s /. float_of_int s.n
end

(* nearest-rank percentile of a sorted array; 0 when empty *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Python's statistics.quantiles(xs, n=4) (method 'exclusive'), so the
   quartiles printed here are the ones the acceptance check computes *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let ratio a b = if b = 0. then 0. else a /. b

(* ----- workloads ----- *)

type workload = Query_converged | Gossip_refresh | Churn_snapshot

let workloads =
  [
    ("query_converged", Query_converged);
    ("gossip_refresh", Gossip_refresh);
    ("churn_snapshot", Churn_snapshot);
  ]

(* requests per repeat: one repeat takes 0.5 to 3 s on a 2-vCPU VM *)
let requests_per_repeat = function
  | Query_converged -> 16_000
  | Gossip_refresh -> 1_600
  | Churn_snapshot -> 640

type kind = K_query | K_meas | K_churn

(* the repeating pattern of request kinds.  Fixed positions give exact
   shares and even spacing, so a repeat's cost does not drift with the
   seed, which only draws the parameters.  Churn_snapshot spaces churn
   64 requests (eight ticks) apart: far under the churn lane's
   4-token-per-tick rate, so admission sheds nothing, and wide enough
   that reconvergence after one event ends before the next begins *)
let pattern = function
  | Query_converged -> [| K_query |]
  | Gossip_refresh -> [| K_query; K_meas |]
  | Churn_snapshot -> Array.init 64 (fun i -> if i < 63 then K_query else K_churn)

(* churn_snapshot: an operator connection asks for a SNAPSHOT this often *)
let snapshot_every = 25

(* churn_snapshot cold-starts without one host in eight *)
let initial_members wl n =
  match wl with
  | Churn_snapshot -> Some (List.filter (fun h -> h mod 8 <> 7) (List.init n Fun.id))
  | Query_converged | Gossip_refresh -> None

type req =
  | R_query of { k : int; b : float }
  | R_meas
  | R_churn of { join : bool; host : int }
  | R_snapshot

(* the request generator; it sees the reactor only through ACKs *)
type gen = {
  rng : Rng.t;
  pattern : kind array;
  mutable pos : int;
  mutable seq : int;
  n : int;
  members : bool array; (* as confirmed by ACKs, shared with the gate *)
  mutable visitor : int option; (* the host that joined and leaves next *)
}

let gen_create wl ~seed ~members =
  let n = Array.length members in
  {
    rng = Rng.create seed;
    pattern = pattern wl;
    pos = 0;
    seq = 0;
    n;
    members;
    visitor = None;
  }

let query_params rng =
  let k = 2 + Rng.int rng 7 in
  (* round-trip through the wire format so the gate checks the b the
     reactor parsed *)
  let b = float_of_string (Printf.sprintf "%.3f" (5. +. Rng.float rng 75.)) in
  (k, b)

let next g =
  let kind = g.pattern.(g.pos) in
  g.pos <- (g.pos + 1) mod Array.length g.pattern;
  g.seq <- g.seq + 1;
  let id = Printf.sprintf "r%d" g.seq in
  match kind with
  | K_query ->
      let k, b = query_params g.rng in
      (id, Printf.sprintf "QUERY %s k=%d b=%.3f" id k b, R_query { k; b })
  | K_meas ->
      let src = Rng.int g.rng g.n in
      let dst = (src + 1 + Rng.int g.rng (g.n - 1)) mod g.n in
      let bw = 1. +. Rng.float g.rng 99. in
      (id, Printf.sprintf "MEAS %s src=%d dst=%d bw=%.3f" id src dst bw, R_meas)
  | K_churn -> (
      (* a host from outside joins and the next churn event removes it
         again, so the overlay does not drift over a run and the cost of
         a repeat stays a property of the code, not of the seed *)
      match g.visitor with
      | Some host ->
          g.visitor <- None;
          (id, Printf.sprintf "LEAVE %s host=%d" id host, R_churn { join = false; host })
      | None ->
          let outside = List.filter (fun h -> not g.members.(h)) (List.init g.n Fun.id) in
          let host = Rng.choose g.rng (Array.of_list outside) in
          g.visitor <- Some host;
          (id, Printf.sprintf "JOIN %s host=%d" id host, R_churn { join = true; host }))

(* ----- one repeat: cold start, then the whole request stream ----- *)

type trace = {
  handle : Samples.t; (* Reactor.handle_line spans, s *)
  parse : Samples.t; (* Wire.parse of each submitted line, s *)
  render : Samples.t; (* Wire.render spans, s *)
  quiet : Samples.t; (* ticks that ran no protocol round, s *)
  stab : Samples.t; (* ticks that ran at least one round, s *)
  snap : Samples.t; (* Lifecycle.snapshot spans, s *)
  waits : Samples.t; (* ticks from submission to response *)
  mutable rounds : int;
  mutable messages : int;
  mutable tick_words : float;
  mutable restore_failures : int; (* in-run snapshots that fail to load *)
}

let trace_create () =
  {
    handle = Samples.create 4096;
    parse = Samples.create 4096;
    render = Samples.create 4096;
    quiet = Samples.create 1024;
    stab = Samples.create 1024;
    snap = Samples.create 16;
    waits = Samples.create 4096;
    rounds = 0;
    messages = 0;
    tick_words = 0.;
    restore_failures = 0;
  }

type pending = { id : string; t0 : float; sent_tick : int; req : req }

type repeat = {
  dyn_s : float; (* Dynamic.create *)
  reactor_s : float; (* Reactor.create *)
  loop_s : float; (* first handle_line to last response *)
  sent : int;
  failed : int;
  shed : int;
  live : int;
  index : int;
  churn_applied : int;
  ticks : int;
  p50_s : float; (* per-request latency percentiles *)
  p99_s : float;
  kwords : float; (* minor words allocated in the loop, thousands *)
  majors : int;
  digest : string;
  tr : trace option;
  read_ns : float; (* Machine.read_ns, mean of the probes either side *)
}

let run_repeat ~wl ~seed ~ds ~space ~snap_path ~traced =
  Gc.compact ();
  let n = Dataset.size ds in
  let metrics = Registry.create () in
  let t0 = clock () in
  let dyn =
    Dynamic.create ~seed:dataset_seed ?initial_members:(initial_members wl n) ds
  in
  let t1 = clock () in
  let r = Reactor.create ~metrics config dyn in
  let t2 = clock () in
  let proto = Dynamic.protocol dyn in
  let members = Array.init n (Dynamic.is_member dyn) in
  let g = gen_create wl ~seed ~members in
  let total = requests_per_repeat wl in
  let operator = clients in
  let pending = Array.make (clients + 1) None in
  let ready = Array.make (clients + 1) 0 in
  let lat = Samples.create (total + 64) in
  let tr = if traced then Some (trace_create ()) else None in
  let digest = ref (Digest.string "") in
  let tick = ref 0 in
  let sent = ref 0 and failed = ref 0 and shed = ref 0 in
  let live = ref 0 and index = ref 0 and churn_applied = ref 0 in
  let feasible ~b hs =
    let lim = Bandwidth.to_distance b *. (1. +. Find_cluster.diam_tol) in
    List.for_all (fun i -> List.for_all (fun j -> space.Space.dist i j <= lim) hs) hs
  in
  let check p response line =
    let id_is id =
      if not (String.equal id p.id) then violate "%S answers request %s" line p.id
    in
    match (response, p.req) with
    | Wire.Answer { id; cluster; served; _ }, R_query { k; b } -> (
        id_is id;
        (match served with Wire.Live -> incr live | Wire.Index -> incr index);
        match cluster with
        | None -> ()
        | Some hs ->
            if List.length (List.sort_uniq Int.compare hs) <> k || List.length hs <> k
            then violate "%S: not %d distinct hosts" line k;
            List.iter
              (fun h ->
                if h < 0 || h >= n || not members.(h) then
                  violate "%S: host %d is not a current member" line h)
              hs;
            if served = Wire.Index && not (feasible ~b hs) then
              violate "%S: an index answer breaks b=%g on some pair" line b)
    | Wire.Acked { id; applied; _ }, R_meas ->
        id_is id;
        if not applied then violate "%S: measurement not applied" line
    | Wire.Acked { id; applied; _ }, R_churn { join; host } ->
        id_is id;
        if applied then begin
          members.(host) <- join;
          incr churn_applied
        end
        else violate "%S: churn event did not apply" line
    | Wire.Snapshotting, R_snapshot -> ()
    | (Wire.Shed { id; _ } | Wire.Timeout { id; _ } | Wire.Rejected { id; _ }), req -> (
        id_is id;
        incr failed;
        (match response with Wire.Shed _ -> incr shed | _ -> ());
        match req with
        | R_churn { join; host } -> g.visitor <- (if join then None else Some host)
        | R_query _ | R_meas | R_snapshot -> ())
    | Wire.Parse_error _, _ -> incr failed
    | _ -> violate "unexpected response %S" line
  in
  let deliver (o : Reactor.output) =
    let ts = match tr with Some _ -> clock () | None -> 0. in
    let line = Wire.render o.Reactor.response in
    let t = clock () in
    (match tr with Some tr -> Samples.push tr.render (t -. ts) | None -> ());
    digest := Digest.string (Printf.sprintf "%s%d %d %s" !digest !tick o.Reactor.conn line);
    match pending.(o.Reactor.conn) with
    | None -> violate "conn %d: response %S with no request outstanding" o.Reactor.conn line
    | Some p ->
        pending.(o.Reactor.conn) <- None;
        ready.(o.Reactor.conn) <- !tick + 1;
        Samples.push lat (t -. p.t0);
        (match tr with
        | Some tr -> Samples.push tr.waits (float_of_int (!tick - p.sent_tick))
        | None -> ());
        check p o.Reactor.response line
  in
  let submit conn id line req =
    (match tr with
    | Some tr ->
        let ts = clock () in
        let (_ : (Wire.request, string) result) = Wire.parse line in
        Samples.push tr.parse (clock () -. ts)
    | None -> ());
    incr sent;
    let t0 = clock () in
    pending.(conn) <- Some { id; t0; sent_tick = !tick; req };
    let outs = Reactor.handle_line r ~now:!tick ~conn line in
    (match tr with Some tr -> Samples.push tr.handle (clock () -. t0) | None -> ());
    List.iter deliver outs
  in
  let issued = ref 0 in
  let outstanding () = Array.exists Option.is_some pending in
  let max_ticks = (100 * total) + 10_000 in
  let words0 = Gc.minor_words () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let loop_t0 = clock () in
  while (!issued < total || outstanding ()) && !tick < max_ticks do
    for c = 0 to clients - 1 do
      if !issued < total && Option.is_none pending.(c) && ready.(c) <= !tick then begin
        incr issued;
        let id, line, req = next g in
        submit c id line req
      end
    done;
    if wl = Churn_snapshot && !issued < total && !tick > 0
       && !tick mod snapshot_every = 0
       && Option.is_none pending.(operator)
    then submit operator "" "SNAPSHOT" R_snapshot;
    (match tr with
    | None -> List.iter deliver (Reactor.tick r ~now:!tick)
    | Some tr ->
        let r0 = Protocol.current_round proto and m0 = Protocol.messages_sent proto in
        let w0 = Gc.minor_words () in
        let ts = clock () in
        let outs = Reactor.tick r ~now:!tick in
        let dt = clock () -. ts in
        let rounds = Protocol.current_round proto - r0 in
        Samples.push (if rounds = 0 then tr.quiet else tr.stab) dt;
        tr.rounds <- tr.rounds + rounds;
        tr.messages <- tr.messages + (Protocol.messages_sent proto - m0);
        tr.tick_words <- tr.tick_words +. (Gc.minor_words () -. w0);
        List.iter deliver outs);
    if Reactor.take_snapshot_request r then begin
      let ts = clock () in
      (match
         Lifecycle.snapshot ~metrics ~keep:snapshot_keep ~path:snap_path (Reactor.system r)
       with
      | Ok _ -> ()
      | Error e -> violate "snapshot failed: %s" (Codec.error_to_string e));
      match tr with
      | Some tr -> (
          Samples.push tr.snap (clock () -. ts);
          (* would a warm boot restore this image? *)
          match Snapshot.load snap_path with
          | Ok (Snapshot.Restored_dynamic _) -> ()
          | Ok (Snapshot.Restored_system _) | Error _ ->
              tr.restore_failures <- tr.restore_failures + 1)
      | None -> ()
    end;
    incr tick
  done;
  let loop_s = clock () -. loop_t0 in
  let lat = Samples.sorted lat in
  let kwords = (Gc.minor_words () -. words0) /. 1e3 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  if outstanding () then violate "requests still unanswered after %d ticks" !tick;
  Array.iteri
    (fun h m ->
      if m <> Dynamic.is_member dyn h then
        violate "host %d: ACKs say member=%b, the system disagrees" h m)
    members;
  ( {
    dyn_s = t1 -. t0;
    reactor_s = t2 -. t1;
    loop_s;
    sent = !sent;
    failed = !failed;
    shed = !shed;
    live = !live;
    index = !index;
    churn_applied = !churn_applied;
    ticks = !tick;
    p50_s = pct lat 0.50;
    p99_s = pct lat 0.99;
    kwords;
    majors;
    digest = Digest.to_hex !digest;
    tr;
    read_ns = Float.nan;
  },
  dyn )

(* ----- the probe: one span per call into each core function, on the
   workload's own final state ----- *)

type probe = {
  encode_ms : float array;
  decode_ms : float array;
  bytes : int;
  refresh_call_ms : float; (* Protocol.refresh_topology itself *)
  refresh_round_ms : float; (* mean round of the reconvergence after it *)
  refresh_rounds : int;
  round_ms : float array; (* per run_round, one value per reconvergence *)
  round_kwords : float array;
  live_us : float;
  live_kwords : float;
  hops_mean : float;
  index_us : float;
  build_ms : float array;
  delta_ms : float array; (* one leave+join pair each *)
}

let time f =
  let t = clock () in
  let x = f () in
  (x, clock () -. t)

let probe ~seed ~space dyn =
  let p = Dynamic.protocol dyn in
  (* rounds until quiescent, each run_round timed on its own *)
  let reconverge () =
    let spans = Samples.create 64 in
    let w0 = Gc.minor_words () in
    let active = ref true in
    while !active && spans.Samples.n < 10_000 do
      let a, dt = time (fun () -> Protocol.run_round p) in
      active := a;
      Samples.push spans dt
    done;
    (spans, Gc.minor_words () -. w0)
  in
  (* first, so that the protocol has folded in any membership change the
     run left pending: only such a state encodes into an image that
     decodes (see persist.restore_failures) *)
  let (), refresh_s = time (fun () -> Protocol.refresh_topology p) in
  let spans, _ = reconverge () in
  let refresh_rounds = spans.Samples.n in
  let image = Snapshot.encode (`Dynamic dyn) in
  let encode_ms =
    Array.init 3 (fun _ ->
        let _, dt = time (fun () -> Snapshot.encode (`Dynamic dyn)) in
        dt *. 1e3)
  in
  let decode_ms =
    Array.init 3 (fun _ ->
        let res, dt = time (fun () -> Snapshot.decode image) in
        (match res with
        | Ok (Snapshot.Restored_dynamic _) -> ()
        | Ok (Snapshot.Restored_system _) ->
            violate "probe: the final image decodes to a static system"
        | Error e ->
            violate "probe: the final image does not decode: %s" (Codec.error_to_string e));
        dt *. 1e3)
  in
  let rounds =
    Array.init 3 (fun _ ->
        Protocol.mark_all_dirty p;
        let spans, words = reconverge () in
        (Samples.mean spans *. 1e3, words /. 1e3 /. float_of_int spans.Samples.n))
  in
  let rng = Rng.create (seed + 1) in
  let queries = Array.init 1000 (fun _ -> query_params rng) in
  let live = Samples.create 1000 in
  let hops = ref 0 in
  let w0 = Gc.minor_words () in
  Array.iter
    (fun (k, b) ->
      let res, dt = time (fun () -> Dynamic.query dyn ~k ~b) in
      hops := !hops + res.Bwc_core.Query.hops;
      Samples.push live dt)
    queries;
  let live_kwords = (Gc.minor_words () -. w0) /. 1e3 /. 1000. in
  let indexed = Samples.create 1000 in
  Array.iter
    (fun (k, b) ->
      let _, dt = time (fun () -> Dynamic.query_centralized dyn ~k ~b) in
      Samples.push indexed dt)
    queries;
  let members = Dynamic.members dyn in
  let build_ms =
    Array.init 3 (fun _ ->
        let _, dt = time (fun () -> Find_cluster.Index.build_subset space members) in
        dt *. 1e3)
  in
  (* last: it mutates the final state *)
  let ms = Array.of_list members in
  let delta_ms =
    Array.init 8 (fun _ ->
        let h = Rng.choose rng ms in
        let applied, dt =
          time (fun () ->
              let l = Dynamic.apply_deferred dyn [ Bwc_sim.Churn.Leave h ] in
              l + Dynamic.apply_deferred dyn [ Bwc_sim.Churn.Join h ])
        in
        if applied <> 2 then violate "probe: leave/join of host %d did not apply" h;
        dt *. 1e3)
  in
  {
    encode_ms;
    decode_ms;
    bytes = String.length image;
    refresh_call_ms = refresh_s *. 1e3;
    refresh_round_ms = Samples.mean spans *. 1e3;
    refresh_rounds;
    round_ms = Array.map fst rounds;
    round_kwords = Array.map snd rounds;
    live_us = Samples.mean live *. 1e6;
    live_kwords;
    hops_mean = float_of_int !hops /. 1000.;
    index_us = Samples.mean indexed *. 1e6;
    build_ms;
    delta_ms;
  }

(* ----- metrics ----- *)

(* one reported metric: the median of [values] (one per repeat or per
   probe call), with [samples] raw observations behind them *)
type metric = { name : string; unit : string; values : float array; samples : int }

type run = {
  seed : int;
  reps : repeat list; (* in the order they ran *)
  digests : string list;
  peak_heap_words : int; (* Gc top_heap_words once the repeats are done *)
  layers : metric list;
}

(* untraced repeats give the end-to-end figures *)
let plain run = List.filter (fun r -> Option.is_none r.tr) run.reps
let traced run = List.filter (fun r -> Option.is_some r.tr) run.reps

let metric ?samples name unit values =
  { name; unit; values; samples = Option.value samples ~default:(Array.length values) }

let per_rep reps f = Array.of_list (List.map f reps)

(* a repeat's wall-clock span [t] at Machine.ref_read_ns *)
let at_ref r t = t *. Machine.ref_read_ns /. r.read_ns
let as_measured _ t = t

(* the end-to-end metrics, with every span of repeat r read as [at r] *)
let end_to_end ?(at = at_ref) run =
  let reps = plain run in
  let lat_samples = List.fold_left (fun acc r -> acc + r.sent) 0 reps in
  [
    metric "throughput_rps" "1/s" (per_rep reps (fun r -> float_of_int r.sent /. at r r.loop_s));
    metric ~samples:lat_samples "latency_p50_ms" "ms" (per_rep reps (fun r -> at r r.p50_s *. 1e3));
    metric ~samples:lat_samples "latency_p99_ms" "ms" (per_rep reps (fun r -> at r r.p99_s *. 1e3));
    metric "alloc_kwords_per_req" "kwords" (per_rep reps (fun r -> r.kwords /. float_of_int r.sent));
    metric "peak_heap_mb" "MB" [| float_of_int (run.peak_heap_words * (Sys.word_size / 8)) /. 1e6 |];
    metric "setup_s" "s" (per_rep reps (fun r -> at r (r.dyn_s +. r.reactor_s)));
  ]

(* the timings as measured, and the probe they are scaled by *)
let wall_clock run =
  List.filter
    (fun m -> List.mem m.name [ "throughput_rps"; "latency_p50_ms"; "latency_p99_ms"; "setup_s" ])
    (end_to_end ~at:as_measured run)
  @ [ metric "machine.read_ns" "ns" (per_rep run.reps (fun r -> r.read_ns)) ]

let failed_share reps =
  let sent = List.fold_left (fun acc r -> acc + r.sent) 0 reps in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 reps in
  metric ~samples:sent "failed_share" "ratio" [| ratio (float_of_int failed) (float_of_int sent) |]

let per_layer ~plain ~traced pr =
  let trs = List.filter_map (fun r -> Option.map (fun tr -> (r, tr)) r.tr) traced in
  let span name unit scale f =
    let n = List.fold_left (fun acc (_, tr) -> acc + (f tr).Samples.n) 0 trs in
    metric ~samples:n name unit
      (Array.of_list (List.map (fun (_, tr) -> Samples.mean (f tr) *. scale) trs))
  in
  let tick_pct name p f =
    let n = List.fold_left (fun acc (_, tr) -> acc + (f tr).Samples.n) 0 trs in
    metric ~samples:n name "ms"
      (Array.of_list (List.map (fun (_, tr) -> pct (Samples.sorted (f tr)) p *. 1e3) trs))
  in
  let count name f = metric name "count" (Array.of_list (List.map f trs)) in
  let tput reps = median (per_rep reps (fun r -> float_of_int r.sent /. at_ref r r.loop_s)) in
  let overhead = 100. *. ratio (tput plain -. tput traced) (tput plain) in
  let total f = List.fold_left (fun acc x -> acc +. f x) 0. trs in
  (* rounds priced at the probe's unit cost: churn reconverges from
     empty tables, after one refresh_topology per applied event *)
  let churned = total (fun ((r : repeat), _) -> float_of_int r.churn_applied) > 0. in
  let round_ms, refresh_ms =
    if churned then (pr.refresh_round_ms, pr.refresh_call_ms) else (median pr.round_ms, 0.)
  in
  let stabilizing =
    total (fun ((r : repeat), tr) ->
        ((float_of_int tr.rounds *. round_ms) +. (float_of_int r.churn_applied *. refresh_ms))
        /. 1e3)
  in
  let stab_share = ratio stabilizing (total (fun (_, tr) -> Samples.sum tr.stab)) in
  (* coverage: counted work priced at probe unit costs plus the spans the
     benchmark measures directly, over the time of every call it makes *)
  let coverage =
    let direct =
      total (fun (_, tr) -> Samples.sum tr.handle +. Samples.sum tr.render +. Samples.sum tr.snap)
    in
    let served =
      total (fun ((r : repeat), _) ->
          (float_of_int r.live *. pr.live_us /. 1e6)
          +. (float_of_int r.index *. pr.index_us /. 1e6)
          +. (float_of_int r.churn_applied *. median pr.delta_ms /. 2e3))
    in
    ratio (direct +. stabilizing +. served)
      (direct +. total (fun (_, tr) -> Samples.sum tr.quiet +. Samples.sum tr.stab))
  in
  let all = plain @ traced in
  [
    span "wire.parse_us" "us" 1e6 (fun tr -> tr.parse);
    span "wire.render_us" "us" 1e6 (fun tr -> tr.render);
    span "reactor.handle_line_us" "us" 1e6 (fun tr -> tr.handle);
    count "admission.shed" (fun (r, _) -> float_of_int r.shed);
    tick_pct "reactor.tick_quiet_ms.p50" 0.50 (fun tr -> tr.quiet);
    tick_pct "reactor.tick_quiet_ms.p99" 0.99 (fun tr -> tr.quiet);
    tick_pct "reactor.tick_stab_ms.p50" 0.50 (fun tr -> tr.stab);
    tick_pct "reactor.tick_stab_ms.p99" 0.99 (fun tr -> tr.stab);
    metric "reactor.wait_ticks.p99" "ticks"
      (Array.of_list (List.map (fun (_, tr) -> pct (Samples.sorted tr.waits) 0.99) trs));
    metric "reactor.tick_kwords" "kwords"
      (Array.of_list
         (List.map (fun ((r : repeat), tr) -> tr.tick_words /. 1e3 /. float_of_int r.ticks) trs));
    count "answers.live" (fun (r, _) -> float_of_int r.live);
    count "answers.index" (fun (r, _) -> float_of_int r.index);
    count "protocol.rounds" (fun (_, tr) -> float_of_int tr.rounds);
    count "protocol.messages" (fun (_, tr) -> float_of_int tr.messages);
    metric "protocol.round_ms" "ms" pr.round_ms;
    metric "protocol.round_kwords" "kwords" pr.round_kwords;
    metric "protocol.refresh_ms" "ms"
      [| pr.refresh_call_ms +. (pr.refresh_round_ms *. float_of_int pr.refresh_rounds) |];
    metric "protocol.stab_share" "ratio" [| stab_share |];
    metric ~samples:1000 "query.live_us" "us" [| pr.live_us |];
    metric ~samples:1000 "query.live_kwords" "kwords" [| pr.live_kwords |];
    metric ~samples:1000 "query.hops_mean" "hops" [| pr.hops_mean |];
    metric ~samples:1000 "index.query_us" "us" [| pr.index_us |];
    metric "index.delta_ms" "ms" pr.delta_ms;
    metric "index.build_ms" "ms" pr.build_ms;
    span "persist.snapshot_ms" "ms" 1e3 (fun tr -> tr.snap);
    metric "persist.encode_ms" "ms" pr.encode_ms;
    metric "persist.decode_ms" "ms" pr.decode_ms;
    metric "persist.bytes" "bytes" [| float_of_int pr.bytes |];
    count "persist.restore_failures" (fun (_, tr) -> float_of_int tr.restore_failures);
    metric "setup.dynamic_create_s" "s" (per_rep all (fun r -> r.dyn_s));
    metric "setup.reactor_create_s" "s" (per_rep all (fun r -> r.reactor_s));
    metric "gc.major_collections" "count" (per_rep all (fun r -> float_of_int r.majors));
    metric "trace.overhead_pct" "%" [| overhead |];
    metric "trace.coverage" "ratio" [| coverage |];
  ]

(* ----- a measured run ----- *)

let measure ~wl ~seed ~seconds ~trace ~ds ~space ~snap_path =
  let start = clock () in
  let reps = ref [] and last_traced = ref None in
  let min_reps = if trace then 4 else 3 in
  let i = ref 0 and longest = ref 0. in
  let read_ns = ref (Machine.read_ns ()) in
  (* start a repeat only if it should end within the run's time *)
  while !i < min_reps || clock () -. start +. !longest < float_of_int seconds do
    let t = clock () in
    (* a traced run alternates untraced and traced repeats, so the
       overhead compares neighbours in time *)
    let traced = trace && !i mod 2 = 1 in
    let rep, final = run_repeat ~wl ~seed ~ds ~space ~snap_path ~traced in
    let before = !read_ns in
    read_ns := Machine.read_ns ();
    reps := { rep with read_ns = (before +. !read_ns) /. 2. } :: !reps;
    (* only the system the probe needs stays alive: peak_heap_mb must
       not grow with the number of repeats *)
    if traced then last_traced := Some final;
    longest := Float.max !longest (clock () -. t);
    incr i
  done;
  let reps = List.rev !reps in
  let digests = List.sort_uniq String.compare (List.map (fun r -> r.digest) reps) in
  if List.length digests <> 1 then
    violate "seed %d: %d different transcripts across %d repeats" seed
      (List.length digests) (List.length reps);
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let run = { seed; reps; digests; peak_heap_words; layers = [] } in
  match !last_traced with
  | None -> run
  | Some final ->
      { run with layers = per_layer ~plain:(plain run) ~traced:(traced run) (probe ~seed ~space final) }

(* ----- output ----- *)

(* run.py turns address-space randomization off (personality flag
   ADDR_NO_RANDOMIZE) because the layout lottery dominated run-to-run
   spread; record whether that took effect *)
let address_layout () =
  match In_channel.with_open_text "/proc/self/personality" In_channel.input_all with
  | s -> (
      match int_of_string_opt ("0x" ^ String.trim s) with
      | Some p when p land 0x0040000 <> 0 -> "fixed"
      | Some _ -> "randomized"
      | None -> "unknown")
  | exception Sys_error _ -> "unknown"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let stats_json ms =
  json_obj
    (List.map
       (fun m ->
         let q1, q2, q3 = quartiles m.values in
         ( m.name,
           json_obj
             [
               ("median", json_num q2);
               ("q1", json_num q1);
               ("q3", json_num q3);
               ("unit", json_str m.unit);
               ("values", string_of_int (Array.length m.values));
               ("samples", string_of_int m.samples);
             ] ))
       ms)

let print_table title ms =
  Printf.printf "%s\n  %-28s %14s %-7s %14s %14s %9s\n" title "metric" "median" "unit"
    "q1" "q3" "samples";
  List.iter
    (fun m ->
      let q1, q2, q3 = quartiles m.values in
      Printf.printf "  %-28s %14.6g %-7s %14.6g %14.6g %9d\n" m.name q2 m.unit q1 q3
        m.samples)
    ms

let report_run ~wl_name ~trace run =
  let reps = run.reps in
  Printf.printf "workload %s  seed %d  repeats %d (%d traced)  requests/repeat %d\n" wl_name
    run.seed (List.length reps) (List.length (traced run))
    (match reps with r :: _ -> r.sent | [] -> 0);
  Printf.printf "transcript digest %s\n" (String.concat "," run.digests);
  List.iteri
    (fun i r ->
      Printf.printf
        "  repeat %d%s: setup %.3f s  loop %.3f s  %.1f req/s  p50 %.4f ms  p99 %.4f ms  read %.2f ns\n"
        i
        (if Option.is_some r.tr then " (traced)" else "")
        (r.dyn_s +. r.reactor_s) r.loop_s
        (float_of_int r.sent /. r.loop_s)
        (r.p50_s *. 1e3) (r.p99_s *. 1e3) r.read_ns)
    reps;
  print_table "end-to-end as measured (untraced repeats)" (wall_clock run);
  print_table
    (Printf.sprintf "end-to-end at a read time of %g ns (untraced repeats; the result)"
       Machine.ref_read_ns)
    (end_to_end run @ [ failed_share reps ]);
  if trace then begin
    print_table "per-layer (traced repeats and probe)" run.layers;
    Printf.printf
      "  unattributed by trace.coverage: Reactor.tick's own bookkeeping (token \
       refill, dequeue, ACK and MEAS handling, mode and watchdog checks), and any \
       gap between a probe's unit cost on the final state and the same call \
       during the run\n"
  end

let () =
  let wl = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let holdout = ref None and rev = ref "unknown" and src = ref "unknown" in
  let scratch = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string wl, "NAME query_converged|gossip_refresh|churn_snapshot");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed (the request stream)");
      ("--seconds", Arg.Set_int seconds, "S measuring time per seed");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--holdout-seed", Arg.Int (fun s -> holdout := Some s), "M also measure seed M");
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
      ("--src", Arg.Set_string src, "DIGEST source-tree digest, for provenance");
      ("--scratch", Arg.Set_string scratch, "DIR where snapshot images are written");
    ]
  in
  let usage = "bwcbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let wl_name = !wl in
  let workload =
    match List.assoc_opt wl_name workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ wl_name);
        exit 2
  in
  let seed =
    match !seed with
    | Some s when !seconds >= 1 && (!trace = 0 || !trace = 1) -> s
    | Some _ | None ->
        prerr_endline usage;
        exit 2
  in
  let trace = !trace = 1 in
  let ds = load_dataset () in
  let space = Space.cached (Dataset.metric ds) in
  let snap_path = Filename.concat !scratch "bwclusterd.bwcsnap" in
  let go seed =
    measure ~wl:workload ~seed ~seconds:!seconds ~trace ~ds ~space ~snap_path
  in
  let main = go seed in
  let held = Option.map go !holdout in
  report_run ~wl_name ~trace main;
  Option.iter (report_run ~wl_name ~trace) held;
  let reported run = if trace then run.layers else end_to_end run in
  let run_json run =
    json_obj
      [
        ("seed", string_of_int run.seed);
        ("repeats", string_of_int (List.length run.reps));
        ("traced_repeats", string_of_int (List.length (traced run)));
        ("transcript_digest", json_str (String.concat "," run.digests));
        ("metrics", stats_json (reported run @ [ failed_share run.reps ]));
        ("as_measured", stats_json (wall_clock run));
      ]
  in
  print_endline
    (json_obj
       [
         ( "provenance",
           json_obj
             ([
                ("git_rev", json_str !rev);
                ("src_digest", json_str !src);
                ("ocaml", json_str Sys.ocaml_version);
                ("nproc", string_of_int (Domain.recommended_domain_count ()));
                ("address_layout", json_str (address_layout ()));
                ("ref_read_ns", json_num Machine.ref_read_ns);
                ("workload", json_str wl_name);
                ("seconds", string_of_int !seconds);
                ("trace", string_of_bool trace);
                ("requests_per_repeat", string_of_int (requests_per_repeat workload));
                ("run", run_json main);
              ]
             @ match held with Some h -> [ ("holdout", run_json h) ] | None -> []) );
       ]);
  let reps = main.reps in
  let attempted = List.fold_left (fun acc r -> acc + r.sent) 0 reps in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 reps in
  let correct = !violations = 0 in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun m ->
                  (m.name, json_obj [ ("value", json_num (median m.values)); ("unit", json_str m.unit) ]))
                (reported main)) );
       ]);
  exit (if correct then 0 else 1)
