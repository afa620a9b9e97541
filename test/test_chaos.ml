(* Chaos testing: randomized fault schedules (pauses, crashes,
   partitions, congestion) driven against a live cluster, checking the
   safety properties Raft must never violate:

   - election safety: at most one leader per term;
   - durability: every acknowledged (committed) write survives to the
     final converged state;
   - convergence: after all faults heal, every replica reaches the same
     state. *)

module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Time = Des.Time
module Node_id = Netsim.Node_id

type tracked_write = { key : string; mutable committed : bool }

let lan () =
  Netsim.Conditions.(constant (profile ~rtt_ms:20. ~jitter:0.1 ~loss:0.01 ()))

(* One chaos episode: [steps] random actions against an [n]-node cluster;
   returns the acknowledged writes for the final durability check. *)
let run_chaos ~seed ~config ~steps =
  let n = 5 in
  let c =
    Cluster.create ~seed ~n ~config ~conditions:(lan ()) ~check:Check.Always ()
  in
  Cluster.start c;
  let rng = Stats.Rng.create ~seed:(Int64.add seed 1000L) () in
  let ids = Array.of_list (Cluster.node_ids c) in
  let paused : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let writes = ref [] in
  let seq = ref 0 in
  let live_count () = n - Hashtbl.length paused in
  let random_node () = ids.(Stats.Rng.int rng n) in
  let submit_writes k =
    for _ = 1 to k do
      incr seq;
      let w = { key = Printf.sprintf "chaos:%d" !seq; committed = false } in
      writes := w :: !writes;
      match
        Cluster.submit_target c
          ~payload:
            (Kvsm.Command.to_payload
               (Kvsm.Command.Put { key = w.key; value = "x" }))
          ~client_id:7 ~seq:!seq
          ~on_result:(fun ~committed -> if committed then w.committed <- true)
      with
      | `Accepted | `Not_leader _ -> ()
    done
  in
  let step () =
    match Stats.Rng.int rng 8 with
    | 0 when live_count () > n / 2 + 1 ->
        (* Pause someone, but never break quorum permanently. *)
        let id = random_node () in
        if not (Hashtbl.mem paused (Node_id.to_int id)) then begin
          Fault.pause c id;
          Hashtbl.add paused (Node_id.to_int id) ()
        end
    | 1 -> (
        (* Resume a random paused node. *)
        match Hashtbl.fold (fun k () _ -> Some k) paused None with
        | Some k ->
            Fault.recover c (Node_id.of_int k);
            Hashtbl.remove paused k
        | None -> ())
    | 2 when live_count () > n / 2 + 1 ->
        let id = random_node () in
        if not (Hashtbl.mem paused (Node_id.to_int id)) then
          Fault.crash_and_restart c id
            ~downtime:(Time.ms (50 + Stats.Rng.int rng 2000))
    | 3 ->
        (* Random partition: 1-2 nodes split off. *)
        let k = 1 + Stats.Rng.int rng 2 in
        let shuffled = Array.copy ids in
        Stats.Rng.shuffle rng shuffled;
        let side = Array.to_list (Array.sub shuffled 0 k) in
        Cluster.partition c [ side ]
    | 4 -> Cluster.heal_partition c
    | 5 | 6 -> submit_writes (1 + Stats.Rng.int rng 5)
    | _ -> () (* just let time pass *)
  in
  for _ = 1 to steps do
    step ();
    Cluster.run_for c (Time.ms (100 + Stats.Rng.int rng 3000))
  done;
  (* Heal everything and let the cluster converge. *)
  Cluster.heal_partition c;
  Hashtbl.iter (fun k () -> Fault.recover c (Node_id.of_int k)) paused;
  Hashtbl.reset paused;
  Cluster.run_for c (Time.sec 30);
  (match Cluster.await_leader c ~timeout:(Time.sec 60) with
  | Some _ -> ()
  | None -> Alcotest.fail "cluster never recovered from the chaos schedule");
  Cluster.run_for c (Time.sec 10);
  (c, List.rev !writes)

let check_election_safety c =
  let leaders_by_term = Hashtbl.create 64 in
  Des.Mtrace.iter (Cluster.trace c) ~f:(fun e ->
      match e.Des.Mtrace.ev with
      | Raft.Probe.Role_change { id; role = Raft.Types.Leader; term } -> (
          match Hashtbl.find_opt leaders_by_term term with
          | Some other when not (Node_id.equal other id) ->
              Alcotest.failf "two leaders in term %d: %a and %a" term
                Node_id.pp other Node_id.pp id
          | Some _ | None -> Hashtbl.replace leaders_by_term term id)
      | _ -> ())

let check_convergence c =
  let digests =
    List.map (fun id -> Kvsm.Store.state_digest (Cluster.store c id))
      (Cluster.node_ids c)
  in
  match digests with
  | d :: rest ->
      List.iteri
        (fun i d' ->
          Alcotest.(check string) (Printf.sprintf "replica %d converged" i) d d')
        rest
  | [] -> Alcotest.fail "no stores"

let check_durability c writes =
  let store =
    match Cluster.leader c with
    | Some l -> Cluster.store c (Raft.Node.id l)
    | None -> Alcotest.fail "no leader for the durability check"
  in
  let acked = List.filter (fun w -> w.committed) writes in
  List.iter
    (fun w ->
      match Kvsm.Store.find store w.key with
      | Some _ -> ()
      | None -> Alcotest.failf "acknowledged write %s was lost" w.key)
    acked;
  acked

let chaos_case ~config ~seed () =
  let c, writes = run_chaos ~seed ~config ~steps:40 in
  check_election_safety c;
  check_convergence c;
  let acked = check_durability c writes in
  (* The schedule keeps quorum most of the time: a healthy fraction of
     writes must actually have been acknowledged, or the test is
     vacuous. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d writes acknowledged" (List.length acked)
       (List.length writes))
    true
    (List.length writes = 0 || List.length acked > 0)

let tests =
  [
    Alcotest.test_case "chaos: static raft, seed 1" `Slow
      (chaos_case ~config:(Raft.Config.static ()) ~seed:1L);
    Alcotest.test_case "chaos: static raft, seed 2" `Slow
      (chaos_case ~config:(Raft.Config.static ()) ~seed:2L);
    Alcotest.test_case "chaos: dynatune, seed 3" `Slow
      (chaos_case ~config:(Raft.Config.dynatune ()) ~seed:3L);
    Alcotest.test_case "chaos: dynatune, seed 4" `Slow
      (chaos_case ~config:(Raft.Config.dynatune ()) ~seed:4L);
    Alcotest.test_case "chaos: dynatune + snapshots, seed 5" `Slow
      (chaos_case
         ~config:(Raft.Config.with_snapshots ~threshold:15 (Raft.Config.dynatune ()))
         ~seed:5L);
    Alcotest.test_case "chaos: extensions + snapshots, seed 6" `Slow
      (chaos_case
         ~config:
           (Raft.Config.with_snapshots ~threshold:10
              (Raft.Config.with_extensions ~suppress_heartbeats_under_load:true
                 ~consolidated_timer:true (Raft.Config.dynatune ())))
         ~seed:6L);
  ]
