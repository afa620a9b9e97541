(* The hot-path loop builders and pinned perf plans shared between the
   bechamel microbenchmarks (bench/micro.ml), the JSON report's
   perf_guard section (bench/main.ml) and the perf-regression guard
   (`selfcheck --perf`): all three must price exactly the same code, or
   the guard would ratchet numbers the benchmark never reported.

   Each builder returns a closure whose per-call minor-heap allocation
   is a constant of the code path alone (no GC- or time-dependent
   branching), so [words_per_op] is exact and host-independent — the
   committed baseline can be compared with a tight margin. *)

let bench_payload =
  Kvsm.Command.to_payload (Kvsm.Command.Put { key = "bench-key"; value = "v" })

let bench_log () =
  let log = Raft.Log.create () in
  for _ = 1 to 1000 do
    ignore
      (Raft.Log.append_new log ~term:1
         (Raft.Log.Data { payload = bench_payload; client_id = 1; seq = 1 })
        : Raft.Log.entry)
  done;
  log

(* Simulate the receiving end of each [Send]: in the live system the
   remote server consumes the payload and releases it into the shared
   pool, which is what refills the sender's next allocation.  Hand-rolled
   recursion so the loop adds no closure of its own. *)
let rec release_sends pool = function
  | [] -> ()
  | Raft.Server.Send { msg; _ } :: rest ->
      Raft.Rpc.Pool.release pool msg;
      release_sends pool rest
  | _ :: rest -> release_sends pool rest

let make_heartbeat_loop () =
  let config = Raft.Config.dynatune () in
  let rng = Stats.Rng.create ~seed:1L () in
  let follower =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  (* Steady state of the live path: the heartbeat is pool-allocated (as
     the leader would), [handle] releases it at end of delivery, and the
     response record is released back as the leader's side would. *)
  let pool = Raft.Server.pool follower in
  let rtt = Some (Des.Time.ms 100) in
  let event =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg = Raft.Rpc.Timeout_now { term = 0 };
      }
  in
  let i = ref 0 in
  fun () ->
    incr i;
    let msg =
      Raft.Rpc.Pool.heartbeat pool ~term:1 ~commit:0 ~hb_id:!i
        ~sent_at:(Des.Time.ms !i) ~measured_rtt:rtt
    in
    (match event with
    | Raft.Server.Message m -> m.msg <- msg
    | _ -> assert false);
    release_sends pool
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) event)

(* The replication engine's entry path, both ends, as standalone servers
   (no fabric, no engine).  The leader is brought to power by feeding the
   vote flow by hand; each iteration then replays a conflict nack that
   rewinds to index 1, so [handle] re-builds and re-sends the same
   64-entry batch — in steady state a batch-cache hit, which is the
   number the allocation-lean work moves.  The follower replays one
   prebuilt duplicate append: the [try_append] prefix-scan hot path. *)
let make_leader_append_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let rng = Stats.Rng.create ~seed:2L () in
  let leader =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  let now = Des.Time.ms 1000 in
  let from_peer p m =
    Raft.Server.Message { from = Netsim.Node_id.of_int p; msg = m }
  in
  ignore (Raft.Server.start leader);
  ignore (Raft.Server.handle leader ~now Raft.Server.Election_timeout_fired);
  List.iter
    (fun pre ->
      List.iter
        (fun p ->
          ignore
            (Raft.Server.handle leader ~now
               (from_peer p
                  (Raft.Rpc.Vote_response
                     { term = 1; granted = true; pre_vote = pre }))))
        [ 1; 2 ])
    [ true; false ];
  assert (Raft.Types.is_leader (Raft.Server.role leader));
  for seq = 1 to 500 do
    ignore
      (Raft.Server.handle leader ~now
         (Raft.Server.Propose
            { payload = bench_payload; client_id = 1; seq }))
  done;
  let nack =
    from_peer 1
      (Raft.Rpc.Append_response
         {
           term = 1;
           success = false;
           match_index = 0;
           conflict_hint = 1;
           req_prev = 0;
           ap_gen = 0;
         })
  in
  let pool = Raft.Server.pool leader in
  fun () -> release_sends pool (Raft.Server.handle leader ~now nack)

(* A 64-entry batch as the wire would carry it, built once. *)
let batch_64 () =
  let scratch = Raft.Log.create () in
  for _ = 1 to 64 do
    ignore
      (Raft.Log.append_new scratch ~term:1
         (Raft.Log.Data { payload = bench_payload; client_id = 1; seq = 1 })
        : Raft.Log.entry)
  done;
  Raft.Log.slice scratch ~from:1 ~max:64

let make_follower_append_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let rng = Stats.Rng.create ~seed:3L () in
  let follower =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  (* A gen-0 request so [handle]'s release leaves the replayed record
     alone; the pooled responses are recycled as the leader would. *)
  let append =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg =
          Raft.Rpc.Append_request
            {
              term = 1;
              prev_index = 0;
              prev_term = 0;
              entries = batch_64 ();
              commit = 0;
              ar_gen = 0;
            };
      }
  in
  let pool = Raft.Server.pool follower in
  let i = ref 0 in
  fun () ->
    incr i;
    release_sends pool
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) append)

(* The same duplicate 64-entry append, but straight into [Log.try_append]
   with no server around it: the log-matching prefix scan alone, the
   floor under the follower figure above. *)
let make_try_append_loop () =
  let log = Raft.Log.create () in
  let entries = batch_64 () in
  (match Raft.Log.try_append log ~prev_index:0 ~prev_term:0 ~entries with
  | `Ok _ -> ()
  | `Conflict _ -> assert false);
  fun () ->
    ignore
      (Raft.Log.try_append log ~prev_index:0 ~prev_term:0 ~entries
        : [ `Ok of Raft.Types.index | `Conflict of Raft.Types.index ])

(* One pre-vote round at the granting follower, replayed: request checks
   (log up-to-dateness, stickiness lease) plus the response build.
   Pre-vote grants mutate no durable state, so the replay is exact. *)
let make_vote_round_loop () =
  let config = Raft.Config.static () in
  let rng = Stats.Rng.create ~seed:4L () in
  let follower =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  let req =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg =
          Raft.Rpc.Vote_request
            {
              term = 1;
              last_log_index = 0;
              last_log_term = 0;
              pre_vote = true;
              force = false;
            };
      }
  in
  let i = ref 0 in
  fun () ->
    incr i;
    ignore
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) req
        : Raft.Server.action list)

(* The snapshot-install receive path, replayed as the stale case (the
   follower's commit point already covers the boundary): term and
   leader-contact bookkeeping, the boundary comparison and the response —
   without wiping the log every iteration. *)
let make_snapshot_install_loop () =
  let config =
    Raft.Config.with_replication ~max_entries_per_append:64
      (Raft.Config.static ())
  in
  let rng = Stats.Rng.create ~seed:5L () in
  let follower =
    Raft.Server.create ~id:(Netsim.Node_id.of_int 0)
      ~peers:(List.tl (Netsim.Node_id.range 5))
      ~config ~rng ()
  in
  ignore (Raft.Server.start follower);
  (* Commit 64 entries so a snapshot up to 50 is stale. *)
  ignore
    (Raft.Server.handle follower ~now:(Des.Time.ms 10)
       (Raft.Server.Message
          {
            from = Netsim.Node_id.of_int 1;
            msg =
              Raft.Rpc.Append_request
                {
                  term = 1;
                  prev_index = 0;
                  prev_term = 0;
                  entries = batch_64 ();
                  commit = 64;
                  ar_gen = 0;
                };
          })
      : Raft.Server.action list);
  let snap =
    Raft.Server.Message
      {
        from = Netsim.Node_id.of_int 1;
        msg =
          Raft.Rpc.Install_snapshot
            {
              term = 1;
              last_index = 50;
              last_term = 1;
              voters = Array.of_list (Netsim.Node_id.range 5);
              learners = [||];
              data = "";
            };
      }
  in
  let pool = Raft.Server.pool follower in
  let i = ref 0 in
  fun () ->
    incr i;
    release_sends pool
      (Raft.Server.handle follower ~now:(Des.Time.ms (!i + 50)) snap)

(* Minor-heap allocation per operation, by [Gc.minor_words] delta: the
   number bechamel's timing tables can't show.  [Gc.minor_words] counts
   words allocated on the minor heap since program start, so the delta
   over N iterations divided by N is exact (modulo the loop's own
   constant). *)
let words_per_op f =
  for _ = 1 to 100 do
    f ()
  done;
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int iters

(* The six words/op rows of the perf guard, under their baseline keys. *)
let guard_loops =
  [
    ("hb_words", make_heartbeat_loop);
    ("rebatch_words", make_leader_append_loop);
    ("follower_append_words", make_follower_append_loop);
    ("try_append_words", make_try_append_loop);
    ("vote_round_words", make_vote_round_loop);
    ("snapshot_install_words", make_snapshot_install_loop);
  ]

(* The steady-state plan: a seed-5 three-server dynatune cluster, elected
   and run 10 s, then measured over the next 120 s — the follower
   heartbeat path end to end, timers through fabric to delivery. *)
let steady_state_alloc ?forensics () =
  let cluster =
    Harness.Cluster.create ~seed:5L ~n:3
      ~config:(Raft.Config.dynatune ())
      ?forensics ()
  in
  Harness.Cluster.start cluster;
  (match Harness.Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
  | Some _ -> ()
  | None -> failwith "steady-state cluster elected no leader");
  Harness.Cluster.run_for cluster (Des.Time.sec 10);
  let w0 = Gc.minor_words () in
  let e0 = Des.Engine.global_processed () in
  Harness.Cluster.run_for cluster (Des.Time.sec 120);
  let e1 = Des.Engine.global_processed () in
  let w1 = Gc.minor_words () in
  (w1 -. w0, e1 - e0)

let steady_state_words_per_event ?forensics () =
  let words, events = steady_state_alloc ?forensics () in
  words /. float_of_int events

let fig4_guard_plan = "fig4 seed=42 failures=400 shards=4 jobs=1"

let fig4_guard () =
  Scenarios.Fig4.run ~seed:42L ~failures:400 ~shards:4 ~jobs:1
    ~config:(Raft.Config.dynatune ()) ()

let multiraft_guard_plan =
  "multiraft seed=11 groups=4 replicas=3 rates=500,1000 jobs=1"

let multiraft_guard () =
  Scenarios.Multiraft.sweep ~seed:11L ~group_counts:[ 4 ] ~replicas:3
    ~rates:[ 500.; 1000. ] ~jobs:1 ()
