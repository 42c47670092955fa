(* The bwclusterd line protocol.

   One request per line, one response line per request — the 1:1
   discipline is what lets a client know when it has heard everything
   it is owed (PING/HEALTH/STATS/SNAPSHOT/SHUTDOWN answer immediately;
   admitted work answers when the reactor reaches it; refused work
   answers SHED immediately).  Fields are space-separated tokens,
   options are [key=value].  Parsing and rendering are pure string
   functions: the same module serves the deterministic in-memory
   transport and the Unix-socket transport in bin/bwclusterd.ml. *)

type request =
  | Ping
  | Query of { id : string; k : int; b : float; deadline : int option }
  | Join of { id : string; host : int }
  | Leave of { id : string; host : int }
  | Measure of { id : string; src : int; dst : int; mbps : float }
  | Health
  | Stats
  | Snapshot_req
  | Shutdown

type served = Live | Index

let served_name = function Live -> "live" | Index -> "index"

type response =
  | Pong
  | Answer of {
      id : string;
      cluster : int list option;
      hops : int;
      served : served;
      degraded : bool;
      staleness : int;
    }
  | Acked of { id : string; cls : string; applied : bool }
  | Shed of { id : string; cls : string; reason : string }
  | Timeout of { id : string; waited : int; deadline : int }
  | Rejected of { id : string; reason : string; attempts : int }
  | Health_report of {
      mode : string;
      members : int;
      staleness : int;
      depth_churn : int;
      depth_query : int;
      depth_meas : int;
    }
  | Stats_json of string
  | Snapshotting
  | Draining
  | Parse_error of { reason : string }

(* ----- parsing ----- *)

let split_words line =
  String.split_on_char ' ' line
  |> List.filter_map (fun w ->
         let w = String.trim w in
         if w = "" then None else Some w)

let opt_assoc words =
  List.filter_map
    (fun w ->
      match String.index_opt w '=' with
      | Some i when i > 0 ->
          Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
      | Some _ | None -> None)
    words

let valid_id id = id <> "" && not (String.contains id '=')

let int_field fields key =
  match List.assoc_opt key fields with
  | Some v -> int_of_string_opt v
  | None -> None

let float_field fields key =
  match List.assoc_opt key fields with
  | Some v -> float_of_string_opt v
  | None -> None

let parse line =
  match split_words line with
  | [] -> Error "empty line"
  | [ "PING" ] -> Ok Ping
  | [ "HEALTH" ] -> Ok Health
  | [ "STATS" ] -> Ok Stats
  | [ "SNAPSHOT" ] -> Ok Snapshot_req
  | [ "SHUTDOWN" ] -> Ok Shutdown
  | "QUERY" :: id :: rest when valid_id id -> (
      let fields = opt_assoc rest in
      match (int_field fields "k", float_field fields "b") with
      | Some k, Some b -> Ok (Query { id; k; b; deadline = int_field fields "deadline" })
      | _ -> Error "QUERY needs k=<int> b=<float> [deadline=<ticks>]")
  | "JOIN" :: id :: rest when valid_id id -> (
      match int_field (opt_assoc rest) "host" with
      | Some host -> Ok (Join { id; host })
      | None -> Error "JOIN needs host=<int>")
  | "LEAVE" :: id :: rest when valid_id id -> (
      match int_field (opt_assoc rest) "host" with
      | Some host -> Ok (Leave { id; host })
      | None -> Error "LEAVE needs host=<int>")
  | "MEAS" :: id :: rest when valid_id id -> (
      let fields = opt_assoc rest in
      match
        (int_field fields "src", int_field fields "dst", float_field fields "bw")
      with
      | Some src, Some dst, Some mbps -> Ok (Measure { id; src; dst; mbps })
      | _ -> Error "MEAS needs src=<int> dst=<int> bw=<float>")
  | verb :: _ -> Error (Printf.sprintf "unknown or malformed request %S" verb)

(* ----- rendering ----- *)

let render = function
  | Pong -> "PONG"
  | Answer { id; cluster; hops; served; degraded; staleness } ->
      let members =
        match cluster with
        | None -> "none"
        | Some hosts -> String.concat "," (List.map string_of_int hosts)
      in
      Printf.sprintf "OK %s cluster=%s hops=%d served=%s degraded=%d staleness=%d" id
        members hops (served_name served)
        (if degraded then 1 else 0)
        staleness
  | Acked { id; cls; applied } ->
      Printf.sprintf "ACK %s class=%s applied=%d" id cls (if applied then 1 else 0)
  | Shed { id; cls; reason } ->
      Printf.sprintf "SHED %s class=%s reason=%s" id cls reason
  | Timeout { id; waited; deadline } ->
      Printf.sprintf "TIMEOUT %s waited=%d deadline=%d" id waited deadline
  | Rejected { id; reason; attempts } ->
      Printf.sprintf "REJECTED %s reason=%s attempts=%d" id reason attempts
  | Health_report { mode; members; staleness; depth_churn; depth_query; depth_meas }
    ->
      Printf.sprintf
        "HEALTH mode=%s members=%d staleness=%d q_churn=%d q_query=%d q_meas=%d" mode
        members staleness depth_churn depth_query depth_meas
  | Stats_json json -> "STATS " ^ json
  | Snapshotting -> "SNAPSHOTTING"
  | Draining -> "DRAINING"
  | Parse_error { reason } -> "ERR " ^ reason
