(* End-to-end exercise of the correctness analyses (the @check alias):

   1. short hostile runs under [Check.Always] — leader pauses and
      crash-restarts across several seeds must violate no invariant;
   2. a 200-seed reconfiguration sweep — random membership changes and
      leader failures mid-campaign, also under [Check.Always] — plus a
      200-seed pipelined-replication sweep: small windows and batches
      over a lossy, duplicating, serializing wire with nodes sleeping
      through write bursts, ending in store convergence — plus a
      200-seed multi-group sweep: several Raft groups on one shared
      fabric behind the shard router, group leaders pausing and
      crashing mid-burst, ending in per-group store convergence;
   3. the determinism sanitizer — pinned shard plans (failover,
      reconfig and multiraft campaigns) must produce bit-identical
      trace digests and metrics snapshots with one worker and with
      many;
   4. a deliberately broken fixture — two leaders sharing a term — that
      the checker is required to catch;
   5. an AST-analyzer smoke: each of the three semantic rules
      (effect-taint, shared-state, protocol-wildcard) must fire on an
      inline bad source and stay silent on a clean one, proving the
      @analysis gate can actually bite.

   `selfcheck --perf BASELINE.json` (the @perf alias) instead replays
   the pinned perf-guard plans from the committed bench report: the
   fig4 and multiraft trace digests must match the baseline bit for
   bit, the hot-path words/op figures (Bench_loops) must stay within a
   small headroom of the recorded ones, and events/sec must stay within
   30% of the recorded figure (the throughput gate is skippable with
   DYNATUNE_PERF_SKIP_THROUGHPUT=1 for hopelessly noisy hosts; the
   digest and allocation gates never are). *)

module Cluster = Harness.Cluster

let fail fmt =
  Format.kasprintf
    (fun m ->
      prerr_endline ("selfcheck: FAILED: " ^ m);
      exit 1)
    fmt

let mini_chaos ~seed =
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:50. ~jitter:0.05 ()))
  in
  let cluster =
    Cluster.create ~seed ~n:5 ~config:(Raft.Config.dynatune ()) ~conditions
      ~check:Check.Always ()
  in
  Cluster.start cluster;
  (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
  | Some _ -> ()
  | None -> fail "no initial leader (seed %Ld)" seed);
  Cluster.run_for cluster (Des.Time.sec 10);
  for round = 1 to 3 do
    (match Cluster.leader cluster with
    | Some l when round mod 2 = 0 ->
        Raft.Node.crash l;
        Cluster.run_for cluster (Des.Time.sec 4);
        Raft.Node.restart l
    | Some l ->
        Raft.Node.pause l;
        Cluster.run_for cluster (Des.Time.sec 4);
        Raft.Node.resume l
    | None -> ());
    Cluster.run_for cluster (Des.Time.sec 4)
  done;
  Cluster.check_now cluster;
  match Cluster.checker cluster with
  | Some c ->
      if Check.checks_run c = 0 then
        fail "checker installed but never ran (seed %Ld)" seed
  | None -> fail "checker missing despite Check.Always"

(* Random single-server add/remove (plus leader pauses) mid-campaign,
   with every safety and reconfiguration invariant checked after every
   delivered event.  One short hostile run per seed. *)
let reconfig_chaos ~seed =
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:20. ~jitter:0.05 ()))
  in
  let cluster =
    Cluster.create ~seed ~n:3 ~config:(Raft.Config.dynatune ()) ~conditions
      ~check:Check.Always ()
  in
  Cluster.start cluster;
  (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
  | Some _ -> ()
  | None -> fail "reconfig chaos: no initial leader (seed %Ld)" seed);
  Cluster.run_for cluster (Des.Time.sec 2);
  let rng =
    Stats.Rng.split (Des.Engine.rng (Cluster.engine cluster)) "selfcheck-chaos"
  in
  for _op = 1 to 4 do
    (match Stats.Rng.int rng 4 with
    | 0 ->
        (* Grow: spawn a joiner and ask the leader to adopt it. *)
        ignore (Cluster.add_server cluster : Netsim.Node_id.t * _)
    | 1 -> (
        (* Shrink: remove a random member (the leader included — that
           exercises the automatic hand-off; an invalid pick is refused
           by the leader, which is also worth hitting). *)
        let ids = Cluster.node_ids cluster in
        let victim = List.nth ids (Stats.Rng.int rng (List.length ids)) in
        match Cluster.remove_server cluster victim with
        | `Ok _ ->
            if Cluster.await_config_quiet cluster ~timeout:(Des.Time.sec 20)
            then begin
              match Cluster.leader cluster with
              | Some l
                when not
                       (List.exists (Netsim.Node_id.equal victim)
                          (Raft.Server.members (Raft.Node.server l))) ->
                  Cluster.retire cluster victim
              | Some _ | None -> ()
            end
        | `Not_leader | `Pending | `Invalid _ -> ())
    | _ -> (
        (* Unplanned leader failure in the middle of it all. *)
        match Cluster.leader cluster with
        | Some l ->
            Raft.Node.pause l;
            Cluster.run_for cluster (Des.Time.sec 3);
            if List.exists
                 (Netsim.Node_id.equal (Raft.Node.id l))
                 (Cluster.node_ids cluster)
            then Raft.Node.resume l
        | None -> ()));
    Cluster.run_for cluster (Des.Time.sec 3)
  done;
  ignore (Cluster.await_config_quiet cluster ~timeout:(Des.Time.sec 30) : bool);
  Cluster.check_now cluster;
  match Cluster.checker cluster with
  | Some c ->
      if Check.checks_run c = 0 then
        fail "reconfig chaos: checker never ran (seed %Ld)" seed
  | None -> fail "reconfig chaos: checker missing despite Check.Always"

(* Replication engine v2 under fire: a small pipelining window and tiny
   batches over a lossy, duplicating, serializing wire, with followers
   sleeping through bursts of writes.  Every delivered event runs the
   full invariant suite ([Check.Always]); at the end the replicas must
   also have converged on one store — the stale-nack rule and the
   stalled-window nudge both sit on this path. *)
let pipelined_chaos ~seed =
  let config =
    Raft.Config.with_replication ~max_inflight_appends:4 ~append_backpressure:8
      ~max_entries_per_append:8
      (Raft.Config.dynatune ())
  in
  let conditions =
    Netsim.Conditions.(
      constant (profile ~rtt_ms:20. ~jitter:0.3 ~loss:0.08 ~duplicate:0.04 ()))
  in
  let cluster =
    Cluster.create ~seed ~n:5 ~config ~conditions ~check:Check.Always ()
  in
  Netsim.Fabric.set_uniform_serialization (Cluster.fabric cluster)
    (Des.Time.us 50);
  Cluster.start cluster;
  (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
  | Some _ -> ()
  | None -> fail "pipelined chaos: no initial leader (seed %Ld)" seed);
  Cluster.run_for cluster (Des.Time.sec 2);
  let rng =
    Stats.Rng.split (Des.Engine.rng (Cluster.engine cluster)) "selfcheck-pipe"
  in
  let target = Cluster.submit_target cluster in
  let seq = ref 0 in
  for _round = 1 to 2 do
    (* A follower (or, one time in four, the leader) sleeps through the
       middle of the burst. *)
    let ids = Cluster.node_ids cluster in
    let victim = List.nth ids (Stats.Rng.int rng (List.length ids)) in
    for i = 1 to 15 do
      if i = 5 then Raft.Node.pause (Cluster.node cluster victim);
      if i = 12 then Raft.Node.resume (Cluster.node cluster victim);
      incr seq;
      ignore
        (target
           ~payload:
             (Kvsm.Command.to_payload
                (Kvsm.Command.Put
                   { key = Printf.sprintf "pipe:%d" !seq; value = "v" }))
           ~client_id:7 ~seq:!seq
           ~on_result:(fun ~committed:_ -> ()));
      Cluster.run_for cluster (Des.Time.ms 20)
    done;
    Cluster.run_for cluster (Des.Time.sec 3)
  done;
  Cluster.run_for cluster (Des.Time.sec 8);
  Cluster.check_now cluster;
  (match Cluster.checker cluster with
  | Some c ->
      if Check.checks_run c = 0 then
        fail "pipelined chaos: checker never ran (seed %Ld)" seed
  | None -> fail "pipelined chaos: checker missing despite Check.Always");
  match
    List.map
      (fun id -> Kvsm.Store.state_digest (Cluster.store cluster id))
      (Cluster.node_ids cluster)
  with
  | [] -> fail "pipelined chaos: no stores (seed %Ld)" seed
  | d :: rest ->
      if not (List.for_all (String.equal d) rest) then
        fail "pipelined chaos: replicas diverged after quiet period (seed %Ld)"
          seed

(* Several consensus groups on one shared fabric/clock behind the shard
   router, every delivered event running the full invariant suite in
   every group's checker.  Random group leaders sleep or crash through
   write bursts; after the quiet period each group's replicas must
   agree on that group's store — per-group convergence is also the
   cross-group isolation witness (a misrouted or cross-applied entry
   would diverge some group's digest). *)
let multiraft_chaos ~seed =
  let module Gm = Multiraft.Group_manager in
  let module Router = Multiraft.Router in
  let conditions =
    Netsim.Conditions.(constant (profile ~rtt_ms:20. ~jitter:0.1 ()))
  in
  let m =
    Gm.create ~seed ~conditions ~check:Check.Always ~groups:3 ~replicas:3
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Gm.start m;
  if not (Gm.await_leaders m ~timeout:(Des.Time.sec 30)) then
    fail "multiraft chaos: initial elections incomplete (seed %Ld)" seed;
  Gm.run_for m (Des.Time.sec 2);
  let router = Router.create m in
  let rng = Stats.Rng.split (Des.Engine.rng (Gm.engine m)) "selfcheck-mr" in
  let seq = ref 0 in
  for _round = 1 to 2 do
    (* A random group's leader drops out mid-burst; one time in two it
       crashes (losing volatile state) rather than just sleeping. *)
    let g = Stats.Rng.int rng (Gm.group_count m) in
    let victim = Harness.Cluster.leader (Gm.group m g) in
    let crash = Stats.Rng.int rng 2 = 0 in
    for i = 1 to 12 do
      (match victim with
      | Some l when i = 4 ->
          if crash then Raft.Node.crash l else Raft.Node.pause l
      | Some l when i = 10 ->
          if crash then Raft.Node.restart l else Raft.Node.resume l
      | Some _ | None -> ());
      incr seq;
      ignore
        (Router.dispatch router
           (Router.Write { key = Printf.sprintf "mr:%d" !seq; value = "v" })
           ~client_id:9 ~seq:!seq
           ~on_result:(fun (_ : Router.response) -> ())
          : Kvsm.Client.submit_result);
      Gm.run_for m (Des.Time.ms 50)
    done;
    Gm.run_for m (Des.Time.sec 3)
  done;
  Gm.run_for m (Des.Time.sec 5);
  Gm.check_now m;
  Gm.iter_groups m (fun g cluster ->
      (match Cluster.checker cluster with
      | Some c ->
          if Check.checks_run c = 0 then
            fail "multiraft chaos: group %d checker never ran (seed %Ld)" g
              seed
      | None ->
          fail "multiraft chaos: group %d checker missing despite \
                Check.Always (seed %Ld)"
            g seed);
      match
        List.map
          (fun id -> Kvsm.Store.state_digest (Cluster.store cluster id))
          (Cluster.node_ids cluster)
      with
      | [] -> fail "multiraft chaos: group %d has no stores (seed %Ld)" g seed
      | d :: rest ->
          if not (List.for_all (String.equal d) rest) then
            fail
              "multiraft chaos: group %d replicas diverged after quiet \
               period (seed %Ld)"
              g seed)

let digest_determinism () =
  let run jobs =
    Scenarios.Fig4.run ~failures:4 ~jobs ~shards:2 ~check:Check.Sample
      ~config:(Raft.Config.dynatune ()) ()
  in
  let a = run 1 and b = run 2 in
  if not (Int64.equal a.Scenarios.Fig4.digest b.Scenarios.Fig4.digest) then
    fail "fig4 digests differ: jobs=1 %Lx vs jobs=2 %Lx"
      a.Scenarios.Fig4.digest b.Scenarios.Fig4.digest

(* The reconfig scenario on a pinned 2-shard plan must be a function of
   the seed alone: same trace digest and byte-identical merged metrics
   snapshot whether one worker runs both shards or two run one each. *)
let reconfig_determinism () =
  let run jobs =
    Scenarios.Reconfig.run ~rounds:2 ~jobs ~shards:2 ~check:Check.Sample
      ~instrument:true
      ~config:(Raft.Config.dynatune ())
      ()
  in
  let a = run 1 and b = run 2 in
  if not (Int64.equal a.Scenarios.Reconfig.digest b.Scenarios.Reconfig.digest)
  then
    fail "reconfig digests differ: jobs=1 %Lx vs jobs=2 %Lx"
      a.Scenarios.Reconfig.digest b.Scenarios.Reconfig.digest;
  let ja = Telemetry.Metrics.to_json a.Scenarios.Reconfig.metrics in
  let jb = Telemetry.Metrics.to_json b.Scenarios.Reconfig.metrics in
  if not (String.equal ja jb) then
    fail "reconfig metrics snapshots differ between jobs=1 and jobs=2"

(* The multiraft sweep on a pinned two-cell plan: same merged trace
   digest and byte-identical merged (group-prefixed) metrics snapshot
   whether one worker runs both cells or two run one each. *)
let multiraft_determinism () =
  let run jobs =
    Scenarios.Multiraft.sweep ~seed:7L ~group_counts:[ 2; 3 ] ~replicas:3
      ~rates:[ 300.; 600. ] ~hold:(Des.Time.sec 1) ~check:Check.Sample
      ~instrument:true ~jobs ()
  in
  let a = run 1 and b = run 2 in
  if
    not (Int64.equal a.Scenarios.Multiraft.digest b.Scenarios.Multiraft.digest)
  then
    fail "multiraft digests differ: jobs=1 %Lx vs jobs=2 %Lx"
      a.Scenarios.Multiraft.digest b.Scenarios.Multiraft.digest;
  let ja = Telemetry.Metrics.to_json a.Scenarios.Multiraft.metrics in
  let jb = Telemetry.Metrics.to_json b.Scenarios.Multiraft.metrics in
  if not (String.equal ja jb) then
    fail "multiraft metrics snapshots differ between jobs=1 and jobs=2"

let broken_fixture () =
  let fake id : Check.node_view =
    {
      Check.id;
      alive = (fun () -> true);
      incarnation = (fun () -> 0);
      role = (fun () -> Raft.Types.Leader);
      term = (fun () -> 3);
      commit_index = (fun () -> 0);
      voted_for = (fun () -> None);
      last_index = (fun () -> 0);
      snapshot_index = (fun () -> 0);
      term_at = (fun _ -> None);
      entry_at = (fun _ -> None);
      voters = (fun () -> Netsim.Node_id.range 2);
      learners = (fun () -> []);
      votes = (fun () -> []);
    }
  in
  let checker =
    Check.create ~mode:Check.Always
      ~nodes:(List.map fake (Netsim.Node_id.range 2))
      ()
  in
  match Check.check_now checker with
  | () -> fail "checker missed two concurrent leaders sharing a term"
  | exception Check.Violation v ->
      if v.Check.invariant <> "election-safety" then
        fail "wrong invariant caught: %s" v.Check.invariant

(* The AST determinism analyzer (lib/analysis, the @analysis alias) has
   its own fixtures and unit tests; this smoke only proves the library
   wired into this binary still detects each semantic rule and reports
   nothing on clean input. *)
let analyzer_smoke () =
  let analyze content =
    Analysis.analyze [ { Analysis.path = "lib/raft/smoke.ml"; content } ]
  in
  List.iter
    (fun (rule, content) ->
      if
        not
          (List.exists
             (fun (f : Analysis.Finding.t) -> f.rule = rule)
             (analyze content))
      then fail "analyzer smoke: rule %s did not fire" rule)
    [
      ("effect-taint", "let tick () = Unix.gettimeofday ()");
      ( "shared-state",
        "let t = Hashtbl.create 4\n\
         let work x = Hashtbl.length t + x\n\
         let run p xs = Pool.map p work xs" );
      ( "protocol-wildcard",
        "type m = A | B [@@protocol]\nlet f = function A -> 0 | _ -> 1" );
      ("wall-clock", "let t () = Sys.time ()");
      ("global-rng", "let r () = Random.bits ()");
      ("obj-magic", "let c x = Obj.magic x");
      ("poly-compare", "let c a b = Stdlib.compare a b");
      ("direct-print", "let p s = prerr_endline s");
      ("stdlib-exit", "let e () = exit 3");
      ("raw-fabric-send", "let s f m = Netsim.Fabric.send f m");
      ("mutable-global", "let g = ref 0");
      ("hot-alloc", "let[@hot] h xs = Array.of_list xs");
    ];
  match analyze "let pure x = x + 1" with
  | [] -> ()
  | f :: _ ->
      fail "analyzer smoke: clean source flagged: %s"
        (Analysis.Finding.render f)

(* --perf mode ---------------------------------------------------------- *)

(* The baseline report is flat hand-written JSON (bench/main.ml), so a
   string scan is enough to pull two fields out of its perf_guard
   section without a JSON dependency. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some (i + m)
    else go (i + 1)
  in
  go from

let guard_field json key =
  let start =
    match find_sub json "\"perf_guard\"" 0 with
    | Some i -> i
    | None -> fail "perf baseline has no \"perf_guard\" section"
  in
  let i =
    match find_sub json (Printf.sprintf "%S:" key) start with
    | Some i -> i
    | None -> fail "perf baseline guard has no %S field" key
  in
  let n = String.length json in
  let rec skip i =
    if i < n && (json.[i] = ' ' || json.[i] = '"') then skip (i + 1) else i
  in
  let a = skip i in
  let rec stop i =
    if i >= n then i
    else match json.[i] with '"' | ',' | '}' | ' ' | '\n' -> i | _ -> stop (i + 1)
  in
  String.sub json a (stop a - a)

(* The forensics disabled-path gate: the pinned steady-state cluster
   (Bench_loops) must allocate identically with no forensics handle and
   with a present-but-disabled one — the [fo_on] guards in [Raft.Node]
   keep the disabled path allocation-free.  A DES run's allocation is
   deterministic for a pinned seed, so the comparison is exact: one
   extra word per event would fail it. *)
let forensics_off_allocation_gate () =
  let minor_words forensics =
    fst (Bench_loops.steady_state_alloc ?forensics ())
  in
  (* One throwaway run first: lazy state (format strings, registries)
     initialized on the first pass would otherwise bias the baseline. *)
  ignore (minor_words None : float);
  let base = minor_words None in
  let off = minor_words (Some (Telemetry.Forensics.create ~enabled:false ())) in
  if base <> off then
    fail
      "forensics disabled path allocates: %.0f minor words with no ring vs \
       %.0f with a disabled ring over the same pinned run"
      base off

let run_perf ~baseline =
  let json =
    match In_channel.with_open_text baseline In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> fail "cannot read perf baseline: %s" msg
  in
  let base_digest = guard_field json "digest" in
  let base_eps =
    match float_of_string_opt (guard_field json "events_per_s") with
    | Some f when f > 0. -> f
    | Some _ | None -> fail "perf baseline has no usable events_per_s"
  in
  let plan = Bench_loops.fig4_guard in
  (* Digests first (and always): any drift is a determinism regression,
     whatever the host's load. *)
  let digest = Printf.sprintf "%Lx" (plan ()).Scenarios.Fig4.digest in
  if not (String.equal digest base_digest) then
    fail "perf guard digest drift: got %s, baseline %s — scheduling order \
          changed"
      digest base_digest;
  let base_mr_digest = guard_field json "multiraft_digest" in
  let mr = Bench_loops.multiraft_guard () in
  let mr_digest = Printf.sprintf "%Lx" mr.Scenarios.Multiraft.digest in
  if not (String.equal mr_digest base_mr_digest) then
    fail
      "perf guard multiraft digest drift: got %s, baseline %s — shared-fabric \
       scheduling order changed"
      mr_digest base_mr_digest;
  (* Allocation ratchets, load-independent: words/op of the hot-path
     loops is a constant of the code path (Bench_loops), so anything
     beyond a small headroom over the committed baseline is a real
     allocation regression. *)
  List.iter
    (fun (key, make) ->
      let base =
        match float_of_string_opt (guard_field json key) with
        | Some f when f >= 0. -> f
        | Some _ | None -> fail "perf baseline has no usable %s" key
      in
      let now = Bench_loops.words_per_op (make ()) in
      if now > (base *. 1.15) +. 8. then
        fail
          "perf guard allocation regression: %s = %.1f words/op vs baseline \
           %.1f (allowed %.1f)"
          key now base
          ((base *. 1.15) +. 8.))
    Bench_loops.guard_loops;
  (* Minor words per DES event of a steady-state cluster: the end-to-end
     allocation figure the pooling work moves (the loop ratchets above
     only cover the server in isolation).  A pinned-seed DES run's
     allocation is deterministic, so a tight 10% margin holds. *)
  (match float_of_string_opt (guard_field json "words_per_event") with
  | Some base when base > 0. ->
      let now = Bench_loops.steady_state_words_per_event () in
      if now > (base *. 1.10) +. 1. then
        fail
          "perf guard allocation regression: %.2f minor words/event in the \
           steady-state cluster vs baseline %.2f (allowed %.2f)"
          now base
          ((base *. 1.10) +. 1.)
  | Some _ | None -> fail "perf baseline has no usable words_per_event");
  (* Allocation identity of the forensics-off path, also load-independent. *)
  forensics_off_allocation_gate ();
  (* Throughput second, best of three: a single reading on a busy host
     swings far more than any plausible regression. *)
  let best = ref 0. in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let e0 = Des.Engine.global_processed () in
    ignore (plan () : Scenarios.Fig4.result);
    let wall = Unix.gettimeofday () -. t0 in
    let events = Des.Engine.global_processed () - e0 in
    if wall > 0. then best := Stdlib.max !best (float_of_int events /. wall)
  done;
  let floor_eps = 0.7 *. base_eps in
  let skipped = Sys.getenv_opt "DYNATUNE_PERF_SKIP_THROUGHPUT" <> None in
  if (not skipped) && !best < floor_eps then
    fail
      "perf guard throughput regression: best of 3 = %.0f events/s, >30%% \
       below baseline %.0f (floor %.0f); set DYNATUNE_PERF_SKIP_THROUGHPUT=1 \
       only if this host is known-noisy"
      !best base_eps floor_eps;
  Printf.printf
    "selfcheck --perf: digests %s and %s (multiraft) match baseline; \
     allocation ratchets hold; %.0f events/s vs baseline %.0f%s\n"
    digest mr_digest !best base_eps
    (if skipped then " (throughput check skipped via env)" else "")

let () =
  match Array.to_list Sys.argv with
  | _ :: "--perf" :: rest ->
      let baseline =
        match rest with
        | [] -> "BENCH_10.json"
        | [ path ] -> path
        | _ ->
            prerr_endline "usage: selfcheck [--perf [BASELINE.json]]";
            exit 2
      in
      run_perf ~baseline
  | [ _ ] ->
      List.iter (fun seed -> mini_chaos ~seed) [ 11L; 12L; 13L ];
      for i = 0 to 199 do
        reconfig_chaos ~seed:(Int64.of_int (1000 + i))
      done;
      for i = 0 to 199 do
        pipelined_chaos ~seed:(Int64.of_int (2000 + i))
      done;
      for i = 0 to 199 do
        multiraft_chaos ~seed:(Int64.of_int (3000 + i))
      done;
      broken_fixture ();
      analyzer_smoke ();
      digest_determinism ();
      reconfig_determinism ();
      multiraft_determinism ();
      print_endline
        "selfcheck: invariants hold, digests deterministic, broken fixture \
         caught, analyzer rules fire"
  | _ ->
      prerr_endline "usage: selfcheck [--perf [BASELINE.json]]";
      exit 2
