(* Round-clocked structured tracing.

   Events carry the simulation round, never wall time: the JSONL
   rendering of a run is a pure function of its seeds, which is what
   lets tests diff whole traces byte-for-byte.

   Schema v2: message events additionally carry a per-run monotone
   message id, a payload kind, an estimated wire size in bytes, and a
   Lamport stamp, so the happens-before DAG of a run is reconstructible
   from its trace alone (see Causal). *)

module Json = Bwc_json.Json

type drop_cause = Fault_loss | Partition | Dead_dst | Purge

type msg_kind =
  | Heartbeat
  | Aggregate
  | Invalidate
  | Ack
  | Retransmit
  | Query
  | Repair

let kind_to_string = function
  | Heartbeat -> "heartbeat"
  | Aggregate -> "aggregate"
  | Invalidate -> "invalidate"
  | Ack -> "ack"
  | Retransmit -> "retransmit"
  | Query -> "query"
  | Repair -> "repair"

let kind_of_string = function
  | "heartbeat" -> Some Heartbeat
  | "aggregate" -> Some Aggregate
  | "invalidate" -> Some Invalidate
  | "ack" -> Some Ack
  | "retransmit" -> Some Retransmit
  | "query" -> Some Query
  | "repair" -> Some Repair
  | _ -> None

let all_kinds = [ Heartbeat; Aggregate; Invalidate; Ack; Retransmit; Query; Repair ]

type event =
  | Round_start of { round : int }
  | Send of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      lc : int;
      src : int;
      dst : int;
    }
  | Deliver of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      lc : int;
      src : int;
      dst : int;
    }
  | Drop of {
      round : int;
      msg : int;
      kind : msg_kind;
      bytes : int;
      src : int;
      dst : int;
      cause : drop_cause;
    }
  | Retransmit of { round : int; src : int; dst : int }
  | Crash of { round : int; node : int }
  | Restart of { round : int; node : int }
  | Query_hop of { round : int; msg : int; bytes : int; src : int; dst : int }
  | Suspect of { round : int; by : int; node : int }
  | Confirm_dead of { round : int; by : int; node : int }
  | Regraft of { round : int; node : int; new_parent : int }
  | Quiesce of { round : int }
  | Snapshot_write of { round : int; bytes : int }
  | Restore of { round : int; warm : bool }
  | Restore_rejected of { round : int; reason : string }
  | Daemon_admit of { round : int; cls : string; conn : int }
  | Daemon_shed of { round : int; cls : string; reason : string }
  | Daemon_timeout of { round : int; waited : int; deadline : int }
  | Daemon_degrade of { round : int; entered : bool; staleness : int }
  | Daemon_retry of { round : int; cls : string; attempt : int; due : int }
  | Daemon_watchdog of { round : int; pending : bool; stalled : int }

type t = {
  capacity : int option;
  q : event Queue.t;
  mutable emitted : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Trace.create: capacity < 1"
  | Some _ | None -> ());
  { capacity; q = Queue.create (); emitted = 0 }

let emit t ev =
  t.emitted <- t.emitted + 1;
  Queue.add ev t.q;
  match t.capacity with
  | Some c when Queue.length t.q > c -> ignore (Queue.pop t.q)
  | Some _ | None -> ()

let events t = List.of_seq (Queue.to_seq t.q)
let emitted t = t.emitted
let clear t = Queue.clear t.q

let cause_to_string = function
  | Fault_loss -> "fault_loss"
  | Partition -> "partition"
  | Dead_dst -> "dead_dst"
  | Purge -> "purge"

let cause_of_string = function
  | "fault_loss" -> Some Fault_loss
  | "partition" -> Some Partition
  | "dead_dst" -> Some Dead_dst
  | "purge" -> Some Purge
  | _ -> None

let event_to_json = function
  | Round_start { round } -> Printf.sprintf "{\"ev\":\"round_start\",\"round\":%d}" round
  | Send { round; msg; kind; bytes; lc; src; dst } ->
      Printf.sprintf
        "{\"ev\":\"send\",\"round\":%d,\"msg\":%d,\"kind\":\"%s\",\"bytes\":%d,\"lc\":%d,\"src\":%d,\"dst\":%d}"
        round msg (kind_to_string kind) bytes lc src dst
  | Deliver { round; msg; kind; bytes; lc; src; dst } ->
      Printf.sprintf
        "{\"ev\":\"deliver\",\"round\":%d,\"msg\":%d,\"kind\":\"%s\",\"bytes\":%d,\"lc\":%d,\"src\":%d,\"dst\":%d}"
        round msg (kind_to_string kind) bytes lc src dst
  | Drop { round; msg; kind; bytes; src; dst; cause } ->
      Printf.sprintf
        "{\"ev\":\"drop\",\"round\":%d,\"msg\":%d,\"kind\":\"%s\",\"bytes\":%d,\"src\":%d,\"dst\":%d,\"cause\":\"%s\"}"
        round msg (kind_to_string kind) bytes src dst (cause_to_string cause)
  | Retransmit { round; src; dst } ->
      Printf.sprintf "{\"ev\":\"retransmit\",\"round\":%d,\"src\":%d,\"dst\":%d}" round src
        dst
  | Crash { round; node } ->
      Printf.sprintf "{\"ev\":\"crash\",\"round\":%d,\"node\":%d}" round node
  | Restart { round; node } ->
      Printf.sprintf "{\"ev\":\"restart\",\"round\":%d,\"node\":%d}" round node
  | Query_hop { round; msg; bytes; src; dst } ->
      Printf.sprintf
        "{\"ev\":\"query_hop\",\"round\":%d,\"msg\":%d,\"bytes\":%d,\"src\":%d,\"dst\":%d}"
        round msg bytes src dst
  | Suspect { round; by; node } ->
      Printf.sprintf "{\"ev\":\"suspect\",\"round\":%d,\"by\":%d,\"node\":%d}" round by
        node
  | Confirm_dead { round; by; node } ->
      Printf.sprintf "{\"ev\":\"confirm_dead\",\"round\":%d,\"by\":%d,\"node\":%d}" round
        by node
  | Regraft { round; node; new_parent } ->
      Printf.sprintf "{\"ev\":\"regraft\",\"round\":%d,\"node\":%d,\"new_parent\":%d}"
        round node new_parent
  | Quiesce { round } -> Printf.sprintf "{\"ev\":\"quiesce\",\"round\":%d}" round
  | Snapshot_write { round; bytes } ->
      Printf.sprintf "{\"ev\":\"snapshot_write\",\"round\":%d,\"bytes\":%d}" round bytes
  | Restore { round; warm } ->
      Printf.sprintf "{\"ev\":\"restore\",\"round\":%d,\"warm\":%b}" round warm
  | Restore_rejected { round; reason } ->
      Printf.sprintf "{\"ev\":\"restore_rejected\",\"round\":%d,\"reason\":%s}" round
        (Json.quote reason)
  | Daemon_admit { round; cls; conn } ->
      Printf.sprintf "{\"ev\":\"daemon_admit\",\"round\":%d,\"cls\":%s,\"conn\":%d}"
        round (Json.quote cls) conn
  | Daemon_shed { round; cls; reason } ->
      Printf.sprintf
        "{\"ev\":\"daemon_shed\",\"round\":%d,\"cls\":%s,\"reason\":%s}" round
        (Json.quote cls) (Json.quote reason)
  | Daemon_timeout { round; waited; deadline } ->
      Printf.sprintf
        "{\"ev\":\"daemon_timeout\",\"round\":%d,\"waited\":%d,\"deadline\":%d}" round
        waited deadline
  | Daemon_degrade { round; entered; staleness } ->
      Printf.sprintf
        "{\"ev\":\"daemon_degrade\",\"round\":%d,\"entered\":%b,\"staleness\":%d}" round
        entered staleness
  | Daemon_retry { round; cls; attempt; due } ->
      Printf.sprintf
        "{\"ev\":\"daemon_retry\",\"round\":%d,\"cls\":%s,\"attempt\":%d,\"due\":%d}"
        round (Json.quote cls) attempt due
  | Daemon_watchdog { round; pending; stalled } ->
      Printf.sprintf
        "{\"ev\":\"daemon_watchdog\",\"round\":%d,\"pending\":%b,\"stalled\":%d}" round
        pending stalled

let to_jsonl t =
  let buf = Buffer.create 4096 in
  Queue.iter
    (fun ev ->
      Buffer.add_string buf (event_to_json ev);
      Buffer.add_char buf '\n')
    t.q;
  Buffer.contents buf

let pp_event ppf ev = Format.pp_print_string ppf (event_to_json ev)

(* ----- parsing (the analyzer's input path) ----- *)

let event_of_json line =
  match Json.of_string line with
  | Error _ | Ok (Json.Arr _ | Json.Str _ | Json.Int _ | Json.Bool _) -> None
  | Ok (Json.Obj fields) -> (
      let int k = match List.assoc_opt k fields with Some (Json.Int i) -> Some i | _ -> None in
      let str k = match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None in
      let bool k =
        match List.assoc_opt k fields with Some (Json.Bool b) -> Some b | _ -> None
      in
      let kind k = Option.bind (str k) kind_of_string in
      match str "ev" with
      | Some "round_start" -> (
          match int "round" with Some round -> Some (Round_start { round }) | None -> None)
      | Some "send" -> (
          match (int "round", int "msg", kind "kind", int "bytes", int "lc", int "src", int "dst") with
          | Some round, Some msg, Some kind, Some bytes, Some lc, Some src, Some dst ->
              Some (Send { round; msg; kind; bytes; lc; src; dst })
          | _ -> None)
      | Some "deliver" -> (
          match (int "round", int "msg", kind "kind", int "bytes", int "lc", int "src", int "dst") with
          | Some round, Some msg, Some kind, Some bytes, Some lc, Some src, Some dst ->
              Some (Deliver { round; msg; kind; bytes; lc; src; dst })
          | _ -> None)
      | Some "drop" -> (
          match
            ( int "round",
              int "msg",
              kind "kind",
              int "bytes",
              int "src",
              int "dst",
              Option.bind (str "cause") cause_of_string )
          with
          | Some round, Some msg, Some kind, Some bytes, Some src, Some dst, Some cause ->
              Some (Drop { round; msg; kind; bytes; src; dst; cause })
          | _ -> None)
      | Some "retransmit" -> (
          match (int "round", int "src", int "dst") with
          | Some round, Some src, Some dst -> Some (Retransmit { round; src; dst })
          | _ -> None)
      | Some "crash" -> (
          match (int "round", int "node") with
          | Some round, Some node -> Some (Crash { round; node })
          | _ -> None)
      | Some "restart" -> (
          match (int "round", int "node") with
          | Some round, Some node -> Some (Restart { round; node })
          | _ -> None)
      | Some "query_hop" -> (
          match (int "round", int "msg", int "bytes", int "src", int "dst") with
          | Some round, Some msg, Some bytes, Some src, Some dst ->
              Some (Query_hop { round; msg; bytes; src; dst })
          | _ -> None)
      | Some "suspect" -> (
          match (int "round", int "by", int "node") with
          | Some round, Some by, Some node -> Some (Suspect { round; by; node })
          | _ -> None)
      | Some "confirm_dead" -> (
          match (int "round", int "by", int "node") with
          | Some round, Some by, Some node -> Some (Confirm_dead { round; by; node })
          | _ -> None)
      | Some "regraft" -> (
          match (int "round", int "node", int "new_parent") with
          | Some round, Some node, Some new_parent ->
              Some (Regraft { round; node; new_parent })
          | _ -> None)
      | Some "quiesce" -> (
          match int "round" with Some round -> Some (Quiesce { round }) | None -> None)
      | Some "snapshot_write" -> (
          match (int "round", int "bytes") with
          | Some round, Some bytes -> Some (Snapshot_write { round; bytes })
          | _ -> None)
      | Some "restore" -> (
          match (int "round", bool "warm") with
          | Some round, Some warm -> Some (Restore { round; warm })
          | _ -> None)
      | Some "restore_rejected" -> (
          match (int "round", str "reason") with
          | Some round, Some reason -> Some (Restore_rejected { round; reason })
          | _ -> None)
      | Some "daemon_admit" -> (
          match (int "round", str "cls", int "conn") with
          | Some round, Some cls, Some conn -> Some (Daemon_admit { round; cls; conn })
          | _ -> None)
      | Some "daemon_shed" -> (
          match (int "round", str "cls", str "reason") with
          | Some round, Some cls, Some reason ->
              Some (Daemon_shed { round; cls; reason })
          | _ -> None)
      | Some "daemon_timeout" -> (
          match (int "round", int "waited", int "deadline") with
          | Some round, Some waited, Some deadline ->
              Some (Daemon_timeout { round; waited; deadline })
          | _ -> None)
      | Some "daemon_degrade" -> (
          match (int "round", bool "entered", int "staleness") with
          | Some round, Some entered, Some staleness ->
              Some (Daemon_degrade { round; entered; staleness })
          | _ -> None)
      | Some "daemon_retry" -> (
          match (int "round", str "cls", int "attempt", int "due") with
          | Some round, Some cls, Some attempt, Some due ->
              Some (Daemon_retry { round; cls; attempt; due })
          | _ -> None)
      | Some "daemon_watchdog" -> (
          match (int "round", bool "pending", int "stalled") with
          | Some round, Some pending, Some stalled ->
              Some (Daemon_watchdog { round; pending; stalled })
          | _ -> None)
      | Some _ | None -> None)

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (lineno + 1) acc rest
    | line :: rest -> (
        match event_of_json line with
        | Some ev -> go (lineno + 1) (ev :: acc) rest
        | None -> Error (Printf.sprintf "trace: unparseable event at line %d" lineno))
  in
  go 1 [] lines
