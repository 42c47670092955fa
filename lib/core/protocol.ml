module Ensemble = Bwc_predtree.Ensemble
module Framework = Bwc_predtree.Framework
module Anchor = Bwc_predtree.Anchor
module Engine = Bwc_sim.Engine
module Fault = Bwc_sim.Fault
module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Rng = Bwc_stats.Rng

type payload = {
  prop_node : Node_info.t list;
  prop_crt : int array;
}

let payload_equal a b =
  a.prop_crt = b.prop_crt
  && List.compare Node_info.compare_host a.prop_node b.prop_node = 0

(* Updates carry a per-link sequence number so that receivers can discard
   duplicates and out-of-order copies (fault jitter breaks link FIFO-ness);
   acks echo the highest sequence seen so senders can retire their
   retransmission state.  Both additionally carry the link's repair epoch:
   self-healing resets a link's state, and anything still in flight from
   before the reset must not be applied against the fresh numbering.
   Heartbeats carry nothing — they only renew failure-detector leases. *)
type message =
  | Update of { epoch : int; seq : int; payload : payload }
  | Ack of { epoch : int; seq : int }
  | Heartbeat

(* Reliable-delivery constants: an unacked update is re-sent after
   [resend_timeout] rounds, at most [max_retransmits] times before the
   sender gives up on the peer; a lossy query hop is retried
   [query_retries] times before routing falls back to the next
   direction. *)
let resend_timeout = 3
let max_retransmits = 16
let query_retries = 2

type out_entry = {
  mutable epoch : int;
  mutable seq : int;
  mutable payload : payload;
  mutable sent_round : int;
  mutable tries : int; (* retransmissions spent on the current seq *)
  mutable acked : bool;
  mutable gave_up : bool; (* retired unacked after max_retransmits *)
}

(* One anchor-tree link as its owner sees it: Algorithms 2/3's received
   tables for this neighbor, the seq/ACK/epoch delivery state in both
   directions, and the failure-detector lease. *)
type link = {
  nb : Node_info.t;                            (* the neighbor *)
  mutable aggr_node : Node_info.t list option; (* received propNode; None until the first update *)
  mutable aggr_crt : int array option;         (* received propCRT *)
  mutable out : out_entry option;              (* last update sent *)
  mutable seen_seq : int;                      (* highest seq received; -1 = none *)
  mutable link_epoch : int;                    (* link repair epoch *)
  mutable last_sent : int;                     (* round of the last send; -1 = never *)
  mutable lease : Detector.lease option;       (* Some iff a detector runs *)
}

type node = {
  id : int;
  info : Node_info.t;
  mutable links : link array;   (* anchor order: parent first, then children *)
  mutable by_peer : link array; (* the same links, ascending peer id *)
  mutable own_row : int array;  (* aggrCRT[self] *)
  (* V_x as [gather] finds it, [||] once an input to [gather] changes;
     [vx_dist] holds its label distances (see [vx]) *)
  mutable vx : Node_info.t array;
  mutable vx_dist : float array;
  mutable dirty : bool;
  (* what flavour of traffic the next dirty flush is: Aggregate in steady
     state, escalated to Invalidate/Repair by self-healing so trace
     attribution can split the byte budget by cause *)
  mutable dirty_kind : Trace.msg_kind;
}

type t = {
  fw : Ensemble.t;
  classes : Classes.t;
  n_cut : int;
  mutable nodes : node option array; (* indexed by host id; None = not a member *)
  engine : message Engine.t;
  detector : Detector.t option;
  trace : Trace.t option;
  mutable rounds : int;
  mutable epoch : int;               (* bumped by every repair round *)
  mutable on_evict : int -> unit;    (* observer of detector/repair evictions *)
  mutable unacked : int;             (* live out entries awaiting an ack, system-wide *)
  mutable step_changed : bool;       (* any node changed state this round *)
  vx_pos : int array;                (* host -> V_x index scratch, -1 between uses *)
  c_retransmissions : Registry.Counter.t;
  c_dup_suppressed : Registry.Counter.t;
  c_stale_discarded : Registry.Counter.t;
  c_give_up : Registry.Counter.t;
  c_heartbeats : Registry.Counter.t;
  c_epoch_discarded : Registry.Counter.t;
  c_repairs : Registry.Counter.t;
  c_regrafts : Registry.Counter.t;
  g_unacked : Registry.Gauge.t;
  h_query_hops : Registry.Histogram.t;
  c_query_retries : Registry.Counter.t;
  c_query_hits : Registry.Counter.t;
  c_query_misses : Registry.Counter.t;
}

let node_of_host fw host = Node_info.make ~host ~labels:(Ensemble.labels fw host)
let peer l = l.nb.Node_info.host

let fresh_link fw ~lease h =
  { nb = node_of_host fw h; aggr_node = None; aggr_crt = None; out = None;
    seen_seq = -1; link_epoch = 0; last_sent = -1; lease }

(* the ascending-peer view is computed here, once per rebuild, so the
   rounds that scan links in peer order never sort *)
let set_links node links =
  let by_peer = Array.copy links in
  Array.sort (fun a b -> compare (peer a) (peer b)) by_peer;
  node.links <- links;
  node.by_peer <- by_peer;
  node.vx <- [||]

let find_link node h = Array.find_opt (fun l -> peer l = h) node.links

let new_lease detector ~round = Option.map (fun d -> Detector.lease d ~round) detector

(* links are created in anchor order, so leases draw their jitter slack
   in that order *)
let fresh_node fw classes detector ~round host =
  let node =
    {
      id = host;
      info = node_of_host fw host;
      links = [||];
      by_peer = [||];
      own_row = Array.make (Classes.count classes) 1;
      vx = [||];
      vx_dist = [||];
      dirty = true;
      dirty_kind = Trace.Aggregate;
    }
  in
  set_links node
    (Array.of_list
       (List.map
          (fun h -> fresh_link fw ~lease:(new_lease detector ~round) h)
          (Ensemble.anchor_neighbors fw host)));
  node

let node_slots fw classes detector ~round =
  Array.init (Ensemble.hosts fw) (fun h ->
      if Ensemble.is_member fw h then Some (fresh_node fw classes detector ~round h)
      else None)

let sync_engine_active t =
  Array.iteri
    (fun h slot -> Engine.set_active t.engine h (slot <> None))
    t.nodes

let make ~fw ~classes ~n_cut ~nodes ~engine ~detector ~metrics ~trace ~rounds ~epoch
    ~unacked =
  {
    fw;
    classes;
    n_cut;
    nodes;
    engine;
    detector;
    trace;
    rounds;
    epoch;
    on_evict = ignore;
    unacked;
    step_changed = false;
    vx_pos = Array.make (Ensemble.hosts fw) (-1);
    c_retransmissions = Registry.counter metrics "protocol.retransmissions";
    c_dup_suppressed = Registry.counter metrics "protocol.dup_suppressed";
    c_stale_discarded = Registry.counter metrics "protocol.stale_discarded";
    c_give_up = Registry.counter metrics "protocol.give_up";
    c_heartbeats = Registry.counter metrics "protocol.heartbeats";
    c_epoch_discarded = Registry.counter metrics "protocol.epoch_discarded";
    c_repairs = Registry.counter metrics "protocol.repairs";
    c_regrafts = Registry.counter metrics "protocol.regrafts";
    g_unacked = Registry.gauge metrics "protocol.unacked";
    h_query_hops = Registry.histogram metrics "query.hops";
    c_query_retries = Registry.counter metrics "query.retries";
    c_query_hits = Registry.counter metrics "query.hits";
    c_query_misses = Registry.counter metrics "query.misses";
  }

let create ~rng ?(n_cut = 10) ?faults ?detector ?metrics ?trace ~classes fw =
  if n_cut < 1 then invalid_arg "Protocol.create: n_cut < 1";
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let detector =
    (* the split keeps the engine's stream untouched relative to
       detector-less runs only when no detector is requested *)
    match detector with
    | None -> None
    | Some cfg -> Some (Detector.create ~metrics ?trace ~rng:(Rng.split rng) cfg)
  in
  let engine = Engine.create ?faults ~metrics ?trace ~rng (Ensemble.hosts fw) in
  let t =
    make ~fw ~classes ~n_cut ~engine ~detector ~metrics ~trace ~rounds:0 ~epoch:0
      ~unacked:0
      ~nodes:(node_slots fw classes detector ~round:0)
  in
  sync_engine_active t;
  t

let n t =
  Array.fold_left (fun acc slot -> if slot = None then acc else acc + 1) 0 t.nodes

let node_opt t x = if x < 0 || x >= Array.length t.nodes then None else t.nodes.(x)

let get_node t x =
  match node_opt t x with
  | Some node -> node
  | None -> invalid_arg "Protocol: host is not a member"

let n_cut t = t.n_cut
let classes t = t.classes
let framework t = t.fw
let metrics t = Engine.metrics t.engine
let epoch t = t.epoch

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

(* ----- traffic labelling (trace attribution) -----

   Estimated wire sizes, a deterministic function of the message alone:
   8 bytes per scalar (host ids, CRT entries, epoch/seq), 24 per label
   entry (host + two geometry floats), 24 of framing on updates/acks.
   The absolute scale is nominal; what the analyzer cares about is the
   relative split across kinds. *)

let heartbeat_bytes = 8
let ack_bytes = 24
let query_hop_bytes = 16

let info_bytes (i : Node_info.t) =
  Array.fold_left (fun acc l -> acc + (24 * Array.length l)) 8 i.Node_info.labels

let payload_bytes p =
  List.fold_left
    (fun acc i -> acc + info_bytes i)
    (8 * Array.length p.prop_crt)
    p.prop_node

let message_bytes = function
  | Heartbeat -> heartbeat_bytes
  | Ack _ -> ack_bytes
  | Update { payload; _ } -> 24 + payload_bytes payload

(* dirty-kind escalation: self-healing outranks steady-state aggregation
   (Repair > Invalidate > Aggregate); point kinds never travel here *)
let kind_rank = function
  | Trace.Repair -> 2
  | Trace.Invalidate -> 1
  | Trace.Aggregate | Trace.Heartbeat | Trace.Ack | Trace.Retransmit | Trace.Query -> 0

let mark_dirty node kind =
  node.dirty <- true;
  if kind_rank kind > kind_rank node.dirty_kind then node.dirty_kind <- kind

(* every protocol send renews the sender-side idle clock that gates
   heartbeats, so heartbeats only fill genuinely silent gaps *)
let send_msg t node l ~kind msg =
  l.last_sent <- Engine.round t.engine;
  Engine.send t.engine ~src:node.id ~dst:(peer l) ~kind ~bytes:(message_bytes msg) msg

(* ----- local state recomputation (Algorithm 3, lines 3-8) ----- *)

(* {x} union aggrNode[v] over every link but the one to [skip],
   deduplicated, most recently discovered first: V_x (Algorithm 3) skips
   nothing, propNode (Algorithm 2) skips the recipient. *)
let gather node ~skip =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let consider (info : Node_info.t) =
    let h = info.Node_info.host in
    if h <> skip && not (Hashtbl.mem seen h) then begin
      Hashtbl.add seen h ();
      acc := info :: !acc
    end
  in
  consider node.info;
  Array.iter
    (fun l ->
      if peer l <> skip then
        match l.aggr_node with Some infos -> List.iter consider infos | None -> ())
    node.links;
  !acc

(* V_x in discovery order.  Its label distances are ensemble medians,
   far dearer than anything that reads them, so they are taken once per
   change of V_x: cell [i * n + j] of [node.vx_dist] is the distance
   between entries [i] and [j].  The buffer only grows and is refilled
   in place: a matrix over 256 words lives in the major heap, and one
   allocated per refill would die there. *)
let vx node =
  if Array.length node.vx = 0 then begin
    let infos = Array.of_list (List.rev (gather node ~skip:(-1))) in
    let n = Array.length infos in
    if Array.length node.vx_dist < n * n then node.vx_dist <- Array.make (n * n) 0.0;
    let d = node.vx_dist in
    for i = 0 to n - 1 do
      d.((i * n) + i) <- 0.0;
      for j = i + 1 to n - 1 do
        let v = Node_info.dist infos.(i) infos.(j) in
        d.((i * n) + j) <- v;
        d.((j * n) + i) <- v
      done
    done;
    node.vx <- infos
  end;
  node.vx

let vx_space node =
  let infos = vx node in
  let n = Array.length infos and d = node.vx_dist in
  (infos, Bwc_metric.Space.make ~n ~dist:(fun i j -> d.((i * n) + j)))

(* One Algorithm-1 pass over V_x gives the whole row: the largest
   cluster per bandwidth class. *)
let recompute_own_row t node =
  let _, space = vx_space node in
  node.own_row <- Find_cluster.max_sizes space ~ls:(Classes.distances t.classes)

(* ----- message construction ----- *)

let same_labels (a : Node_info.t) (b : Node_info.t) =
  (* bwclint: allow determinism-taint -- a shortcut only: shared labels are equal labels, so the answer is structural equality's whatever the sharing *)
  a.Node_info.labels == b.Node_info.labels || a.Node_info.labels = b.Node_info.labels

(* Algorithm 2: the n_cut hosts closest to the recipient among
   {x} union aggrNode[v] for v <> recipient.  Every candidate's host is
   in V_x, so its key is the recipient's row of the V_x matrix whenever
   V_x holds the recipient and both entries carry the labels at hand;
   an aggregated info can carry an older epoch's labels, so anything
   else takes a fresh median.  Label distances are bitwise symmetric, so
   a row read equals the median it replaces. *)
let prop_node_for t node ~recipient =
  let infos = vx node in
  let n = Array.length infos in
  Array.iteri (fun i (info : Node_info.t) -> t.vx_pos.(info.Node_info.host) <- i) infos;
  let index_of (c : Node_info.t) =
    let i = t.vx_pos.(c.Node_info.host) in
    if i >= 0 && same_labels infos.(i) c then i else -1
  in
  let row = index_of recipient in
  let key c =
    let j = if row < 0 then -1 else index_of c in
    if j < 0 then Node_info.dist recipient c else node.vx_dist.((row * n) + j)
  in
  let cand =
    Array.of_list
      (List.map (fun c -> (key c, c)) (gather node ~skip:recipient.Node_info.host))
  in
  Array.iter (fun (info : Node_info.t) -> t.vx_pos.(info.Node_info.host) <- -1) infos;
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) cand;
  List.init (Stdlib.min t.n_cut (Array.length cand)) (fun i -> snd cand.(i))

(* Algorithm 3, lines 9-10: max over own row and every other neighbor's
   aggregated column. *)
let prop_crt_for node ~recipient =
  let out = Array.copy node.own_row in
  Array.iter
    (fun l ->
      if peer l <> recipient then
        match l.aggr_crt with
        | Some row -> Array.iteri (fun i v -> if v > out.(i) then out.(i) <- v) row
        | None -> ())
    node.links;
  out

let send_updates t node =
  let now = Engine.round t.engine in
  Array.iter
    (fun l ->
      let payload =
        {
          prop_node = prop_node_for t node ~recipient:l.nb;
          prop_crt = prop_crt_for node ~recipient:(peer l);
        }
      in
      let le = l.link_epoch in
      match l.out with
      | Some entry when entry.epoch = le && payload_equal entry.payload payload ->
          (* nothing new; if unacked the resend timer covers the loss *)
          ()
      | Some entry ->
          entry.seq <- (if entry.epoch = le then entry.seq + 1 else 0);
          entry.epoch <- le;
          entry.payload <- payload;
          entry.sent_round <- now;
          entry.tries <- 0;
          if entry.gave_up then begin
            (* fresh content revives a given-up link: the peer may only
               have been unreachable, and the bound restarts per update *)
            entry.gave_up <- false;
            t.unacked <- t.unacked + 1
          end
          else if entry.acked then t.unacked <- t.unacked + 1;
          entry.acked <- false;
          send_msg t node l ~kind:node.dirty_kind
            (Update { epoch = le; seq = entry.seq; payload })
      | None ->
          l.out <-
            Some
              {
                epoch = le;
                seq = 0;
                payload;
                sent_round = now;
                tries = 0;
                acked = false;
                gave_up = false;
              };
          t.unacked <- t.unacked + 1;
          send_msg t node l ~kind:node.dirty_kind (Update { epoch = le; seq = 0; payload }))
    node.links

(* Timeout-based retransmission: an unacked update is re-sent verbatim
   every [resend_timeout] rounds, so the aggregation survives message
   loss and crash windows.  After [max_retransmits] fruitless tries the
   sender gives up — the entry is retired from the unacked count (the
   peer is presumed dead; quiescence must not hinge on it) but kept, so
   any later sign of life from the peer revives it.  Links are visited
   by ascending peer: the send order decides in-flight FIFO order within
   a delivery round. *)
let resend_pending t node =
  let now = Engine.round t.engine in
  Array.iter
    (fun l ->
      match l.out with
      | Some entry
        when (not entry.acked)
             && (not entry.gave_up)
             && now - entry.sent_round >= resend_timeout ->
          if entry.tries >= max_retransmits then begin
            entry.gave_up <- true;
            t.unacked <- t.unacked - 1;
            Registry.Counter.incr t.c_give_up
          end
          else begin
            entry.tries <- entry.tries + 1;
            entry.sent_round <- now;
            Registry.Counter.incr t.c_retransmissions;
            emit t (Trace.Retransmit { round = now; src = node.id; dst = peer l });
            send_msg t node l ~kind:Trace.Retransmit
              (Update { epoch = entry.epoch; seq = entry.seq; payload = entry.payload })
          end
      | Some _ | None -> ())
    node.by_peer

(* a message from a peer we had given up on proves it alive: restore the
   entry to the unacked pool and let the resend timer fire immediately *)
let revive_given_up t l =
  match l.out with
  | Some entry when entry.gave_up ->
      entry.gave_up <- false;
      entry.tries <- 0;
      entry.sent_round <- Engine.round t.engine - resend_timeout;
      t.unacked <- t.unacked + 1
  | Some _ | None -> ()

let send_heartbeats t node =
  match t.detector with
  | None -> ()
  | Some d ->
      let hb = (Detector.config d).Detector.heartbeat_every in
      let now = Engine.round t.engine in
      Array.iter
        (fun l ->
          if l.last_sent < 0 || now - l.last_sent >= hb then begin
            Registry.Counter.incr t.c_heartbeats;
            send_msg t node l ~kind:Trace.Heartbeat Heartbeat
          end)
        node.links

(* ----- round driver ----- *)

let apply_update t node l ~epoch ~seq payload =
  if epoch < l.link_epoch then begin
    (* predates the link's last repair reset: the fresh numbering must
       not be contaminated by the old epoch's sequence space *)
    Registry.Counter.incr t.c_epoch_discarded;
    false
  end
  else begin
    if epoch > l.link_epoch then begin
      (* the sender re-established the link first; adopt its epoch and
         restart the per-link numbering *)
      l.link_epoch <- epoch;
      l.seen_seq <- -1
    end;
    let seen = l.seen_seq in
    if seq < seen then begin
      (* out-of-order copy superseded by something already applied *)
      Registry.Counter.incr t.c_stale_discarded;
      send_msg t node l ~kind:Trace.Ack (Ack { epoch; seq = seen });
      false
    end
    else if seq = seen then begin
      (* duplicate: the aggregation merge is idempotent, so re-applying
         must be a no-op — check that the stored state already equals the
         payload, then just re-ack (the previous ack may have been lost) *)
      Registry.Counter.incr t.c_dup_suppressed;
      assert (
        match l.aggr_node with
        | Some prev -> List.compare Node_info.compare_host prev payload.prop_node = 0
        | None -> false);
      assert (
        match l.aggr_crt with
        | Some prev -> prev = payload.prop_crt
        | None -> false);
      send_msg t node l ~kind:Trace.Ack (Ack { epoch; seq = seen });
      false
    end
    else begin
      l.seen_seq <- seq;
      send_msg t node l ~kind:Trace.Ack (Ack { epoch; seq });
      let node_diff =
        match l.aggr_node with
        | Some prev -> List.compare Node_info.compare_host prev payload.prop_node <> 0
        | None -> true
      in
      if node_diff then begin
        l.aggr_node <- Some payload.prop_node;
        node.vx <- [||]
      end;
      let crt_diff =
        match l.aggr_crt with
        | Some prev -> prev <> payload.prop_crt
        | None -> true
      in
      if crt_diff then l.aggr_crt <- Some payload.prop_crt;
      node_diff || crt_diff
    end
  end

let apply_ack t l ~epoch ~seq =
  match l.out with
  | Some entry when (not entry.acked) && epoch = entry.epoch && seq = entry.seq ->
      entry.acked <- true;
      if entry.gave_up then entry.gave_up <- false
      else t.unacked <- t.unacked - 1
  | Some _ | None -> ()

let step t id inbox =
  match t.nodes.(id) with
  | None -> false
  | Some node ->
  let now = Engine.round t.engine in
  let changed = ref node.dirty in
  List.iter
    (fun (src, msg) ->
      match find_link node src with
      | None -> (
          (* in-flight leftover of a link self-healing already tore down *)
          match msg with
          | Update _ -> Registry.Counter.incr t.c_epoch_discarded
          | Ack _ | Heartbeat -> ())
      | Some l -> (
          (match l.lease with
          | Some lease -> Detector.heard lease ~round:now
          | None -> ());
          revive_given_up t l;
          match msg with
          | Update { epoch; seq; payload } ->
              if apply_update t node l ~epoch ~seq payload then changed := true
          | Ack { epoch; seq } -> apply_ack t l ~epoch ~seq
          | Heartbeat -> ()))
    inbox;
  if !changed then begin
    recompute_own_row t node;
    send_updates t node;
    node.dirty <- false;
    node.dirty_kind <- Trace.Aggregate;
    t.step_changed <- true
  end;
  resend_pending t node;
  send_heartbeats t node;
  !changed

(* ----- failure detection ----- *)

(* every lease, by (watcher, peer) ascending *)
let fold_leases f acc t =
  Array.fold_left
    (fun acc -> function
      | Some node ->
          Array.fold_left
            (fun acc l -> match l.lease with Some lease -> f acc node l lease | None -> acc)
            acc node.by_peer
      | None -> acc)
    acc t.nodes

(* Lease expiry at the end of a round.  The scan order decides
   trace-event order and the order repairs are applied in.  A dead
   watcher hears nothing by definition; its frozen leases must not let
   it condemn its (live) peers.  Returns the sorted, deduplicated peers
   newly confirmed dead. *)
let expire_leases t d =
  let round = Engine.round t.engine in
  List.sort_uniq compare
    (fold_leases
       (fun acc node l lease ->
         if
           Engine.is_active t.engine node.id
           && Detector.expire d lease ~round ~watcher:node.id ~peer:(peer l)
         then peer l :: acc
         else acc)
       [] t)

let lease_pending t =
  match t.detector with
  | None -> false
  | Some d ->
      let round = Engine.round t.engine in
      fold_leases (fun acc _ _ lease -> acc || Detector.pending d lease ~round) false t

(* ----- self-healing repair (confirmed-dead eviction) ----- *)

(* ancestors aggregate the dead node's subtree through max-merged CRT
   columns; marking the root path dirty forces them to recompute and
   repropagate instead of waiting for the decrease to trickle up *)
let rec mark_root_path t x =
  (match t.nodes.(x) with
  | Some node -> mark_dirty node Trace.Repair
  | None -> ());
  match Anchor.parent (Framework.anchor (Ensemble.primary t.fw)) x with
  | Some p -> mark_root_path t p
  | None -> ()

(* forget an unacked live entry before dropping it *)
let drop_out_entry t l =
  (match l.out with
  | Some e when (not e.acked) && not e.gave_up -> t.unacked <- t.unacked - 1
  | Some _ | None -> ());
  l.out <- None

(* re-read [node]'s anchor neighborhood after an eviction: surviving
   links keep their state, links to departed neighbors retire their
   pending output, and new neighbors get a fresh link whose lease
   {!relink} establishes *)
let rebuild_links t node =
  let links =
    Array.of_list
      (List.map
         (fun h ->
           match find_link node h with
           | Some l -> l
           | None -> fresh_link t.fw ~lease:None h)
         (Ensemble.anchor_neighbors t.fw node.id))
  in
  Array.iter (fun l -> if not (Array.memq l links) then drop_out_entry t l) node.links;
  set_links node links

(* (re-)establish the live link [a]<->[b] at the current repair epoch:
   per-link delivery state and the lease restart from scratch on both
   sides *)
let relink t ~round a b =
  let half x y =
    match t.nodes.(x) with
    | None -> ()
    | Some node ->
        (match find_link node y with
        | Some l ->
            drop_out_entry t l;
            l.seen_seq <- -1;
            l.last_sent <- -1;
            l.link_epoch <- t.epoch;
            l.lease <- new_lease t.detector ~round
        | None -> ());
        mark_dirty node Trace.Repair
  in
  half a b;
  half b a

let repair_one t dead_h =
  match t.nodes.(dead_h) with
  | None -> ()
  | Some dnode ->
      let now = Engine.round t.engine in
      Registry.Counter.incr t.c_repairs;
      (* retire the dead node's own pending output from the global count *)
      Array.iter (drop_out_entry t) dnode.links;
      let old_nbrs = Array.map peer dnode.by_peer in
      (* local overlay repair: orphans regraft to the grandparent *)
      let regrafts = Ensemble.evict_host t.fw dead_h in
      t.nodes.(dead_h) <- None;
      Engine.set_active t.engine dead_h false;
      (* incremental invalidation: only the dead node's ex-neighbors hold
         direct state about it; on a tree nothing else can echo it back
         (recompute-and-replace propagation overwrites downstream copies),
         so dropping their links to it and re-propagating re-converges
         the overlay *)
      Array.iter
        (fun x ->
          match t.nodes.(x) with
          | None -> ()
          | Some node ->
              rebuild_links t node;
              mark_dirty node Trace.Invalidate)
        old_nbrs;
      List.iter
        (fun (c, p) ->
          Registry.Counter.incr t.c_regrafts;
          emit t (Trace.Regraft { round = now; node = c; new_parent = p });
          relink t ~round:now c p;
          mark_root_path t p)
        regrafts;
      (* membership observers (e.g. a maintained clustering index) apply
         the same eviction as a delta instead of rebuilding *)
      t.on_evict dead_h

let repair t ~dead =
  let dead = List.sort_uniq compare (List.filter (fun h -> t.nodes.(h) <> None) dead) in
  if dead <> [] then begin
    t.epoch <- t.epoch + 1;
    List.iter (repair_one t) dead;
    (* the repair itself is protocol progress: re-aggregation must run *)
    t.step_changed <- true
  end

let set_on_evict t f = t.on_evict <- f

let crash_host t h =
  let (_ : node) = get_node t h in
  emit t (Trace.Crash { round = Engine.round t.engine; node = h });
  Engine.set_active t.engine h false

let run_round t =
  t.step_changed <- false;
  let active = Engine.run_round t.engine ~step:(step t) in
  t.rounds <- t.rounds + 1;
  Registry.Gauge.set t.g_unacked t.unacked;
  match t.detector with
  | None ->
      (* unacked updates keep the protocol live even across quiet rounds
         between retransmission timeouts *)
      active || t.unacked > 0
  | Some d ->
      repair t ~dead:(expire_leases t d);
      (* heartbeats keep the engine's in-flight count permanently
         non-zero, so the engine's own activity notion is useless here:
         the protocol is live while state changed, updates await acks, or
         a detector lease is running out *)
      t.step_changed || t.unacked > 0 || lease_pending t

let run_aggregation ?max_rounds t =
  let max_rounds =
    match max_rounds with Some m -> m | None -> Stdlib.max 8 (4 * Array.length t.nodes)
  in
  let rec loop r =
    if r >= max_rounds then r
    else if run_round t then loop (r + 1)
    else begin
      emit t (Trace.Quiesce { round = Engine.round t.engine });
      r + 1
    end
  in
  loop 0

(* ----- queries (Algorithm 4) ----- *)

let clustering_space t x = Array.copy (vx (get_node t x))

(* everything the cache replaces, taken from scratch *)
let check_vx_cache t x =
  let node = get_node t x in
  let infos = vx node in
  let fresh = Array.of_list (List.rev (gather node ~skip:(-1))) in
  let n = Array.length fresh in
  let same_info (a : Node_info.t) (b : Node_info.t) =
    a.Node_info.host = b.Node_info.host && same_labels a b
  in
  let bad_cell () =
    let medians =
      Bwc_metric.Space.cached
        (Bwc_metric.Space.make ~n ~dist:(fun i j ->
             if i = j then 0.0 else Node_info.dist fresh.(i) fresh.(j)))
    in
    let bad = ref None in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if
          !bad = None
          && Int64.bits_of_float node.vx_dist.((i * n) + j)
             <> Int64.bits_of_float (medians.Bwc_metric.Space.dist i j)
        then bad := Some (i, j)
      done
    done;
    !bad
  in
  let fresh_prop_node recipient =
    let cand =
      Array.of_list
        (List.map
           (fun c -> (Node_info.dist recipient c, c))
           (gather node ~skip:recipient.Node_info.host))
    in
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) cand;
    List.init (Stdlib.min t.n_cut (Array.length cand)) (fun i -> snd cand.(i))
  in
  let fail fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "host %d: %s" x msg)) fmt in
  if Array.length infos <> n || not (Array.for_all2 same_info infos fresh) then
    fail "cached V_x differs from a fresh gather"
  else
    match bad_cell () with
    | Some (i, j) -> fail "cell (%d, %d) differs from its median" i j
    | None -> (
        match
          Array.find_opt
            (fun l ->
              not
                (List.equal ( == ) (prop_node_for t node ~recipient:l.nb)
                   (fresh_prop_node l.nb)))
            node.links
        with
        | Some l -> fail "propNode for %d differs" (peer l)
        | None -> Ok ())

let routing_suspects t ~at h =
  match node_opt t at with
  | None -> false
  | Some node -> (
      match find_link node h with
      | Some { lease = Some lease; _ } -> Detector.suspects lease
      | Some { lease = None; _ } | None -> false)

(* failure-detector detour: directions under suspicion become last
   resorts — probably dead, but not yet written off *)
let detour ordered =
  let suspected, healthy =
    List.partition
      (fun (l, _) ->
        match l.lease with Some lease -> Detector.suspects lease | None -> false)
      ordered
  in
  healthy @ suspected

let local_find t node ~k ~cls =
  let infos, space = vx_space node in
  match Find_cluster.find space ~k ~l:(Classes.distance t.classes cls) with
  | None -> None
  | Some idxs -> Some (List.map (fun i -> infos.(i).Node_info.host) idxs)

let query ?(policy = `Best_crt) t ~at ~k ~cls =
  if k < 2 then invalid_arg "Protocol.query: k < 2";
  if cls < 0 || cls >= Classes.count t.classes then invalid_arg "Protocol.query: bad class";
  let faults = Engine.faults t.engine in
  let round = Engine.round t.engine in
  let retries_used = ref 0 in
  let result cluster ~path =
    let hops = List.length path - 1 in
    Registry.Histogram.observe t.h_query_hops hops;
    Registry.Counter.incr ~by:!retries_used t.c_query_retries;
    Registry.Counter.incr
      (if cluster = None then t.c_query_misses else t.c_query_hits);
    { Query.cluster; hops; retries = !retries_used; path = List.rev path }
  in
  (* A hop to a dead or partitioned neighbor fails outright; a lossy link
     gets up to [query_retries] retransmissions before the router falls
     back to the next qualifying neighbor. *)
  let rec first_reachable x = function
    | [] -> None
    | h :: rest ->
        if not (Engine.is_active t.engine h) then first_reachable x rest
        else if Fault.partitioned faults ~round ~src:x ~dst:h then first_reachable x rest
        else begin
          let rec attempt tries_left =
            if not (Fault.sample_loss faults) then true
            else if tries_left = 0 then false
            else begin
              incr retries_used;
              attempt (tries_left - 1)
            end
          in
          if attempt query_retries then Some h else first_reachable x rest
        end
  in
  (* a routing path on the anchor tree is simple, so n hops is already
     unreachable: the budget only guards against a routing loop *)
  let rec go x ~from ~path ~budget =
    let node = get_node t x in
    if node.own_row.(cls) >= k then result (local_find t node ~k ~cls) ~path
    else if budget = 0 then result None ~path
    else begin
      (* Forward to a neighbor claiming a big-enough cluster in its
         direction, never back to the sender.  The paper allows "any"
         such neighbor; `Best_crt orders directions by promised cluster
         size, `First keeps neighbor order.  Later candidates are
         fallbacks for dead, partitioned or persistently lossy hops. *)
      let qualifying =
        Array.fold_right
          (fun l acc ->
            if Some (peer l) = from then acc
            else
              match l.aggr_crt with
              | Some row when row.(cls) >= k -> (l, row.(cls)) :: acc
              | Some _ | None -> acc)
          node.links []
      in
      let ordered =
        match policy with
        | `First -> qualifying
        | `Best_crt ->
            (* stable sort: equal promises keep neighbor order *)
            List.stable_sort (fun (_, a) (_, b) -> compare b a) qualifying
      in
      match first_reachable x (List.map (fun (l, _) -> peer l) (detour ordered)) with
      | Some next ->
          emit t
            (Trace.Query_hop
               { round; msg = Engine.fresh_msg_id t.engine;
                 bytes = query_hop_bytes; src = x; dst = next });
          go next ~from:(Some x) ~path:(next :: path) ~budget:(budget - 1)
      | None -> result None ~path
    end
  in
  (* a non-member is a caller error (raises); a member that is merely
     crashed right now is a runtime condition (miss) *)
  let (_ : node) = get_node t at in
  if not (Engine.is_active t.engine at) then result None ~path:[ at ]
  else go at ~from:None ~path:[ at ] ~budget:(Array.length t.nodes)

let query_bandwidth ?policy t ~at ~k ~b =
  match Classes.class_for t.classes ~b with
  | Some cls -> query ?policy t ~at ~k ~cls
  | None -> Query.not_found_at at

let neighbors t x = Array.to_list (Array.map peer (get_node t x).links)

let link_or_raise node m =
  match find_link node m with Some l -> l | None -> raise Not_found

let aggregated_nodes t x m =
  Option.value ~default:[] (link_or_raise (get_node t x) m).aggr_node

let crt_row t x v =
  let node = get_node t x in
  if v = x then Array.copy node.own_row
  else
    match (link_or_raise node v).aggr_crt with
    | Some row -> Array.copy row
    | None -> Array.make (Classes.count t.classes) 0

let max_reachable t x ~cls =
  let node = get_node t x in
  Array.fold_left
    (fun acc l ->
      match l.aggr_crt with Some row -> Stdlib.max acc row.(cls) | None -> acc)
    node.own_row.(cls) node.links

let messages_sent t = Engine.messages_sent t.engine
let rounds_run t = t.rounds
let retries t = Registry.Counter.value t.c_retransmissions
let duplicates_suppressed t = Registry.Counter.value t.c_dup_suppressed
let stale_discarded t = Registry.Counter.value t.c_stale_discarded
let give_ups t = Registry.Counter.value t.c_give_up
let heartbeats_sent t = Registry.Counter.value t.c_heartbeats
let epoch_discarded t = Registry.Counter.value t.c_epoch_discarded
let repairs_run t = Registry.Counter.value t.c_repairs
let regrafts_applied t = Registry.Counter.value t.c_regrafts
let pending_unacked t = t.unacked

let mark_all_dirty t =
  Array.iter
    (function
      | Some node ->
          node.dirty <- true;
          node.vx <- [||]
      | None -> ())
    t.nodes

(* ----- persistence -----

   The dump is the durable per-node state only.  In-flight engine traffic
   is deliberately absent: a whole-system crash loses the network, and
   that is exactly the loss the seq/ACK + retransmission layer already
   recovers from — unacked out entries resume their resend timers after a
   restore.  Neighbor infos are {e not} dumped either; they are always
   derived from the ensemble, which travels alongside. *)

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
  l_aggr_node : Node_info.t list option;
  l_aggr_crt : int array option;
  l_out : out_dump option;
  l_seen_seq : int;
  l_epoch : int;
  l_last_sent : int;
  l_lease : Detector.lease option;
}

type node_dump = {
  nd_id : int;
  nd_active : bool; (* engine liveness: a crashed-but-not-evicted member *)
  nd_dirty : bool;
  nd_own_row : int array;
  nd_links : link_dump list; (* ascending peer id, exactly the anchor neighbors *)
}

type dump = {
  d_n_cut : int;
  d_rounds : int;
  d_epoch : int;
  d_engine_round : int;
  d_engine_rng : int64;
  d_nodes : node_dump list; (* ascending host id, members only *)
  d_detector : (Detector.config * int64) option; (* config, jitter generator *)
}

let copy_lease (l : Detector.lease) = { l with Detector.last_heard = l.Detector.last_heard }

let dump_link l =
  {
    l_peer = peer l;
    l_aggr_node = l.aggr_node;
    l_aggr_crt = l.aggr_crt;
    l_out =
      Option.map
        (fun (e : out_entry) ->
          { o_epoch = e.epoch; o_seq = e.seq; o_prop_node = e.payload.prop_node;
            o_prop_crt = e.payload.prop_crt; o_sent_round = e.sent_round;
            o_tries = e.tries; o_acked = e.acked; o_gave_up = e.gave_up })
        l.out;
    l_seen_seq = l.seen_seq;
    l_epoch = l.link_epoch;
    l_last_sent = l.last_sent;
    l_lease = Option.map copy_lease l.lease;
  }

let dump t =
  let dump_node node =
    { nd_id = node.id; nd_active = Engine.is_active t.engine node.id; nd_dirty = node.dirty;
      nd_own_row = Array.copy node.own_row;
      nd_links = List.map dump_link (Array.to_list node.by_peer) }
  in
  {
    d_n_cut = t.n_cut;
    d_rounds = t.rounds;
    d_epoch = t.epoch;
    d_engine_round = Engine.round t.engine;
    d_engine_rng = Engine.rng_state t.engine;
    d_nodes = List.filter_map (Option.map dump_node) (Array.to_list t.nodes);
    d_detector =
      Option.map (fun d -> (Detector.config d, Detector.rng_state d)) t.detector;
  }

let of_dump ?faults ?metrics ?trace ~classes fw d =
  let fail msg = invalid_arg ("Protocol.of_dump: " ^ msg) in
  if d.d_n_cut < 1 then fail "n_cut < 1";
  if d.d_rounds < 0 || d.d_engine_round < 0 || d.d_epoch < 0 then fail "negative clock";
  let n = Ensemble.hosts fw in
  let n_classes = Classes.count classes in
  let n_trees = Ensemble.size fw in
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let engine = Engine.create ?faults ~metrics ?trace ~rng:(Rng.of_state d.d_engine_rng) n in
  Engine.restore_round engine d.d_engine_round;
  let detector =
    Option.map
      (fun (cfg, rng) -> Detector.create ~metrics ?trace ~rng:(Rng.of_state rng) cfg)
      d.d_detector
  in
  (* membership must match the ensemble exactly: every dumped node a
     member, every member dumped *)
  let dumped_ids = List.map (fun nd -> nd.nd_id) d.d_nodes in
  if List.sort_uniq compare dumped_ids <> dumped_ids then
    fail "node dumps not strictly ascending";
  if dumped_ids <> List.sort compare (Ensemble.members fw) then
    fail "membership disagrees with the ensemble";
  let check_info (info : Node_info.t) =
    if info.Node_info.host < 0 || info.Node_info.host >= n then fail "info host out of range";
    if Array.length info.Node_info.labels <> n_trees then fail "info label arity mismatch"
  in
  let check_row row = if Array.length row <> n_classes then fail "CRT row arity mismatch" in
  let unacked = ref 0 in
  let restore_link l ld =
    Option.iter (List.iter check_info) ld.l_aggr_node;
    Option.iter check_row ld.l_aggr_crt;
    if ld.l_seen_seq < -1 then fail "seen seq below -1";
    if ld.l_epoch < 0 || ld.l_epoch > d.d_epoch then fail "link epoch out of range";
    if ld.l_last_sent < -1 || ld.l_last_sent > d.d_engine_round then
      fail "send stamp out of range";
    (match (detector, ld.l_lease) with
    | Some det, Some lease ->
        if lease.Detector.slack < 0 || lease.Detector.slack > (Detector.config det).Detector.jitter
        then fail "lease slack outside the jitter range"
    | None, None -> ()
    | Some _, None | None, Some _ -> fail "lease presence disagrees with the detector");
    l.out <-
      Option.map
        (fun o ->
          if o.o_epoch < 0 || o.o_epoch > d.d_epoch then fail "out entry epoch out of range";
          if o.o_seq < 0 || o.o_tries < 0 then fail "negative out entry field";
          if o.o_sent_round > d.d_engine_round then fail "out entry from the future";
          check_row o.o_prop_crt;
          List.iter check_info o.o_prop_node;
          if (not o.o_acked) && not o.o_gave_up then incr unacked;
          { epoch = o.o_epoch; seq = o.o_seq;
            payload = { prop_node = o.o_prop_node; prop_crt = Array.copy o.o_prop_crt };
            sent_round = o.o_sent_round; tries = o.o_tries; acked = o.o_acked;
            gave_up = o.o_gave_up })
        ld.l_out;
    l.aggr_node <- ld.l_aggr_node;
    l.aggr_crt <- Option.map Array.copy ld.l_aggr_crt;
    l.seen_seq <- ld.l_seen_seq;
    l.link_epoch <- ld.l_epoch;
    l.last_sent <- ld.l_last_sent;
    l.lease <- Option.map copy_lease ld.l_lease
  in
  let nodes = Array.make n None in
  List.iter
    (fun nd ->
      check_row nd.nd_own_row;
      Array.iter (fun v -> if v < 0 then fail "negative cluster size") nd.nd_own_row;
      let node = fresh_node fw classes None ~round:0 nd.nd_id in
      (* one link per anchor neighbor, listed once, ascending: anything
         else would re-encode to different bytes *)
      if List.map (fun ld -> ld.l_peer) nd.nd_links <> Array.to_list (Array.map peer node.by_peer)
      then fail "links are not the anchor neighbors in ascending order";
      List.iteri (fun i ld -> restore_link node.by_peer.(i) ld) nd.nd_links;
      node.vx <- [||];
      node.own_row <- Array.copy nd.nd_own_row;
      node.dirty <- nd.nd_dirty;
      nodes.(nd.nd_id) <- Some node)
    d.d_nodes;
  let t =
    make ~fw ~classes ~n_cut:d.d_n_cut ~nodes ~engine ~detector ~metrics ~trace
      ~rounds:d.d_rounds ~epoch:d.d_epoch ~unacked:!unacked
  in
  (* liveness from the dump, not from membership: a crashed-but-not-yet-
     evicted member restores as crashed *)
  Array.iteri
    (fun h slot -> if slot = None then Engine.set_active t.engine h false)
    t.nodes;
  List.iter
    (fun nd -> if not nd.nd_active then Engine.set_active t.engine nd.nd_id false)
    d.d_nodes;
  t

let current_round t = Engine.round t.engine

(* Rebuilding the slots from scratch both refreshes labels/neighborhoods
   after a framework change and tracks membership changes (joins create a
   slot, leaves clear one); every fresh link gets a fresh lease.
   In-flight traffic belongs to the old topology and sequence numbering,
   so it is discarded wholesale — the fresh slots repropagate everything
   anyway. *)
let refresh_topology t =
  t.nodes <- node_slots t.fw t.classes t.detector ~round:(Engine.round t.engine);
  t.unacked <- 0;
  Engine.clear_in_flight t.engine;
  sync_engine_active t
