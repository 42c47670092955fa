module Registry = Bwc_obs.Registry
module Trace = Bwc_obs.Trace
module Rng = Bwc_stats.Rng

type config = {
  heartbeat_every : int;
  suspect_after : int;
  confirm_after : int;
  jitter : int;
}

let default_config =
  { heartbeat_every = 2; suspect_after = 6; confirm_after = 10; jitter = 0 }

type state = Alive | Suspected | Confirmed

type lease = {
  mutable last_heard : int;
  mutable state : state;
  slack : int; (* seeded per-link stretch of both thresholds *)
}

type t = {
  cfg : config;
  rng : Rng.t;
  trace : Trace.t option;
  c_suspects : Registry.Counter.t;
  c_confirms : Registry.Counter.t;
}

let validate cfg =
  if cfg.heartbeat_every < 1 then invalid_arg "Detector: heartbeat_every < 1";
  if cfg.suspect_after < cfg.heartbeat_every + 2 then
    invalid_arg "Detector: suspect_after must exceed heartbeat_every + 1";
  if cfg.confirm_after <= cfg.suspect_after then
    invalid_arg "Detector: confirm_after must exceed suspect_after";
  if cfg.jitter < 0 then invalid_arg "Detector: jitter < 0"

let create ?metrics ?trace ~rng cfg =
  validate cfg;
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  {
    cfg;
    rng;
    trace;
    c_suspects = Registry.counter metrics "detector.suspects";
    c_confirms = Registry.counter metrics "detector.confirms";
  }

let config t = t.cfg
let rng_state t = Rng.state t.rng

let emit t ev = match t.trace with Some tr -> Trace.emit tr ev | None -> ()

let lease t ~round =
  let slack = if t.cfg.jitter = 0 then 0 else Rng.int t.rng (t.cfg.jitter + 1) in
  { last_heard = round; state = Alive; slack }

let heard l ~round =
  if round > l.last_heard then l.last_heard <- round;
  (* any sign of life revives a suspected (or even confirmed but not yet
     repaired) peer *)
  l.state <- Alive

let suspects l =
  match l.state with
  | Suspected | Confirmed -> true
  | Alive -> false

let expire t l ~round ~watcher ~peer =
  let silence = round - l.last_heard in
  match l.state with
  | Alive when silence >= t.cfg.suspect_after + l.slack ->
      l.state <- Suspected;
      Registry.Counter.incr t.c_suspects;
      emit t (Trace.Suspect { round; by = watcher; node = peer });
      false
  | Suspected when silence >= t.cfg.confirm_after + l.slack ->
      l.state <- Confirmed;
      Registry.Counter.incr t.c_confirms;
      emit t (Trace.Confirm_dead { round; by = watcher; node = peer });
      true
  | Alive | Suspected | Confirmed -> false

let pending t l ~round = round - l.last_heard > t.cfg.heartbeat_every + 1
