(* The causal forensics layer: cause-ID packing, the causal-tracking
   switch and its neutrality (tracking adds vote receipts and stamps to
   the cluster trace, and changes nothing else), the time-series
   recorder (cadence, exports, shard merge, digest neutrality), the
   explain analysis over synthetic and live streams (with a golden file
   pinning the rendered output), and the flight recorder attached to
   invariant violations. *)

module Cause = Telemetry.Cause
module Forensics = Telemetry.Forensics
module Probe = Raft.Probe
module Node_id = Netsim.Node_id
module Recorder = Telemetry.Recorder
module Metrics = Telemetry.Metrics
module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

type entry = Scenarios.Explain.entry

(* {1 Cause packing} *)

let kinds =
  [
    (Cause.Election_timer, "et");
    (Cause.Heartbeat_timer, "hb");
    (Cause.Client, "cl");
    (Cause.Fault, "ft");
    (Cause.Internal, "in");
  ]

let test_cause_roundtrip () =
  List.iter
    (fun (k, tag) ->
      let c = Cause.make ~kind:k ~node:7 ~term:42 ~seq:12345 in
      Alcotest.(check bool) "not none" false (Cause.is_none c);
      Alcotest.(check string) "kind tag" tag (Cause.kind_name (Cause.kind c));
      Alcotest.(check int) "node" 7 (Cause.node c);
      Alcotest.(check int) "term" 42 (Cause.term c);
      Alcotest.(check int) "seq" 12345 (Cause.seq c))
    kinds;
  (* Field extremes survive, one past the field wraps. *)
  let c = Cause.make ~kind:Cause.Client ~node:4095 ~term:32767 ~seq:0xFFFF_FFFF in
  Alcotest.(check int) "node max" 4095 (Cause.node c);
  Alcotest.(check int) "term max" 32767 (Cause.term c);
  Alcotest.(check int) "seq max" 0xFFFF_FFFF (Cause.seq c);
  let w = Cause.make ~kind:Cause.Client ~node:4096 ~term:32768 ~seq:0 in
  Alcotest.(check int) "node wraps" 0 (Cause.node w);
  Alcotest.(check int) "term wraps" 0 (Cause.term w)

let test_cause_to_string () =
  Alcotest.(check string) "none renders -" "-" (Cause.to_string Cause.none);
  Alcotest.(check bool) "none is none" true (Cause.is_none Cause.none);
  let c = Cause.make ~kind:Cause.Election_timer ~node:2 ~term:7 ~seq:1234 in
  Alcotest.(check string) "packed render" "et:n2/t7#1234" (Cause.to_string c)

let prop_cause_roundtrip =
  Q.Test.make ~count:200 ~name:"cause pack/unpack round-trips in-field values"
    Q.(quad (int_bound 4) (int_bound 4095) (int_bound 32767) (int_bound 0xFFFFFF))
    (fun (ki, node, term, seq) ->
      let kind = fst (List.nth kinds ki) in
      let c = Cause.make ~kind ~node ~term ~seq in
      (not (Cause.is_none c))
      && Cause.kind c = kind && Cause.node c = node && Cause.term c = term
      && Cause.seq c = seq)

(* {1 The switch} *)

let test_forensics_disabled_inert () =
  List.iter
    (fun fo ->
      Alcotest.(check bool) "disabled" false (Forensics.enabled fo);
      let c = Forensics.new_cause fo ~kind:Cause.Fault ~node:3 ~term:9 in
      Alcotest.(check bool) "new_cause is none" true (Cause.is_none c))
    [ Forensics.noop; Forensics.create ~enabled:false () ];
  let fo = Forensics.create () in
  let seqs =
    List.init 3 (fun _ ->
        Cause.seq (Forensics.new_cause fo ~kind:Cause.Client ~node:0 ~term:1))
  in
  Alcotest.(check (list int)) "enabled switch counts causes" [ 1; 2; 3 ] seqs

(* The explain scenario (seed 23, Dynatune, three leader kills with
   recovery on the geo WAN), with causal tracking on or off. *)
let geo_failovers ~forensics =
  let cluster =
    Harness.Cluster.create ~seed:23L ~n:5
      ~config:(Raft.Config.dynatune ())
      ~telemetry:(Metrics.create ~enabled:true ())
      ~forensics ()
  in
  Scenarios.Geo.apply cluster ();
  Harness.Cluster.start cluster;
  let await () =
    match Harness.Cluster.await_leader cluster ~timeout:(Des.Time.sec 120) with
    | Some _ -> ()
    | None -> Alcotest.fail "no leader elected"
  in
  await ();
  Harness.Cluster.run_for cluster (Des.Time.sec 30);
  for _ = 1 to 3 do
    match Harness.Fault.kill_leader cluster with
    | Some (failed, _) ->
        await ();
        Harness.Cluster.run_for cluster (Des.Time.sec 5);
        Harness.Fault.recover cluster failed;
        Harness.Cluster.run_for cluster (Des.Time.sec 10)
    | None -> Alcotest.fail "no leader to kill"
  done;
  ( Des.Mtrace.events (Harness.Cluster.trace cluster),
    Des.Engine.processed_events (Harness.Cluster.engine cluster) )

let is_vote (e : entry) =
  match e.ev with Probe.Vote_received _ -> true | _ -> false

let timed_pp (e : entry) =
  Format.asprintf "%a %a" Des.Time.pp e.at Probe.pp e.ev

(* Causal tracking only observes: with it on, the trace gains vote
   receipts and stamps, and nothing else moves — the same transitions
   at the same instants, the same number of DES events processed. *)
let test_tracking_is_neutral () =
  let off, off_events = geo_failovers ~forensics:Forensics.noop in
  let on, on_events = geo_failovers ~forensics:(Forensics.create ()) in
  Alcotest.(check int) "probes with tracking off" 1245 (List.length off);
  Alcotest.(check int) "DES events with tracking off" 6647 off_events;
  Alcotest.(check int) "same DES events with tracking on" off_events on_events;
  Alcotest.(check (list string))
    "tracking on, minus vote receipts = tracking off"
    (List.map timed_pp off)
    (List.map timed_pp (List.filter (fun e -> not (is_vote e)) on));
  Alcotest.(check bool) "vote receipts only with tracking on" true
    ((not (List.exists is_vote off)) && List.exists is_vote on);
  Alcotest.(check bool) "no stamps with tracking off" true
    (List.for_all
       (fun (e : entry) -> e.cause = 0 && e.parent = 0)
       off)

(* {1 Recorder} *)

let test_recorder_cadence () =
  let engine = Des.Engine.create ~seed:1L () in
  let m = Metrics.create ~enabled:true () in
  let c = Metrics.counter m ~scope:"test" ~name:"ticks" () in
  let g = Metrics.gauge m ~scope:"test" ~name:"level" () in
  let r = Recorder.create ~every:(Des.Time.ms 10) () in
  Alcotest.(check bool) "enabled" true (Recorder.enabled r);
  Recorder.attach r engine (fun () -> Metrics.snapshot m);
  Metrics.Counter.add c 3;
  Metrics.Gauge.set g 2.5;
  Des.Engine.run_for engine (Des.Time.ms 100);
  Alcotest.(check int) "one sample per period" 10 (Recorder.samples r);
  let dump = Recorder.dump r in
  Alcotest.(check int) "one series per key" 2 (List.length dump);
  List.iter
    (fun (_, samples) ->
      Alcotest.(check int) "series length" 10 (Array.length samples))
    dump;
  (* Exports are well-formed. *)
  let csv = Recorder.to_csv dump in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 4 && String.sub csv 0 4 = "t_ms");
  (* header + 10 sampled instants *)
  Alcotest.(check int) "csv rows" 11
    (List.length
       (String.split_on_char '\n' (String.trim csv)));
  let om = Recorder.to_openmetrics dump in
  let om = String.trim om in
  let eof = "# EOF" in
  Alcotest.(check string) "openmetrics terminator" eof
    (String.sub om (String.length om - String.length eof) (String.length eof));
  let window = Recorder.window r 3 in
  Alcotest.(check int) "window lines" 3 (List.length window)

let test_recorder_disabled_inert () =
  let engine = Des.Engine.create ~seed:1L () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "disabled" false (Recorder.enabled r);
      Recorder.attach r engine (fun () -> Metrics.snapshot Metrics.noop);
      Des.Engine.run_for engine (Des.Time.ms 50);
      Alcotest.(check int) "no samples" 0 (Recorder.samples r);
      Alcotest.(check int) "empty dump" 0 (List.length (Recorder.dump r));
      Alcotest.(check (list string)) "empty window" [] (Recorder.window r 4))
    [ Recorder.noop; Recorder.create ~enabled:false ~every:(Des.Time.ms 10) () ]

let test_recorder_merge_prefixes () =
  let part i = [ (Printf.sprintf "k%d" i, [| (1., float_of_int i) |]) ] in
  let merged = Recorder.merge [ part 0; part 1 ] in
  Alcotest.(check (list string))
    "keys prefixed by shard"
    [ "s0/k0"; "s1/k1" ]
    (List.map fst merged)

(* {1 Campaign determinism with the recorder on} *)

(* Acceptance: on a pinned shard plan the merged time series — and the
   probe-trace digest — are functions of the seed alone, equal at
   [--jobs 1] and [--jobs 4]; and turning the recorder on does not
   perturb the digest (its sampling events draw no randomness). *)
let fig4_recorded ~seed ~jobs =
  Scenarios.Fig4.run ~seed ~failures:6 ~shards:4 ~jobs ~instrument:true
    ~record:(Des.Time.ms 500)
    ~config:(Raft.Config.dynatune ())
    ()

let test_fig4_recorder_jobs_invariant () =
  let r1 = fig4_recorded ~seed:11L ~jobs:1 in
  let r4 = fig4_recorded ~seed:11L ~jobs:4 in
  let csv1 = Recorder.to_csv r1.Scenarios.Fig4.recorder in
  Alcotest.(check bool) "series non-trivial" true (String.length csv1 > 100);
  Alcotest.(check string) "recorder jobs 1 = jobs 4" csv1
    (Recorder.to_csv r4.Scenarios.Fig4.recorder);
  Alcotest.(check int64) "digest jobs 1 = jobs 4" r1.Scenarios.Fig4.digest
    r4.Scenarios.Fig4.digest;
  (* Digest neutrality: the same plan without the recorder agrees. *)
  let bare =
    Scenarios.Fig4.run ~seed:11L ~failures:6 ~shards:4 ~jobs:1
      ~instrument:true
      ~config:(Raft.Config.dynatune ())
      ()
  in
  Alcotest.(check int64) "recorder does not perturb the digest"
    bare.Scenarios.Fig4.digest r1.Scenarios.Fig4.digest

(* Same contract on the geo WAN: fig8 digests and recorder series are
   functions of (seed, shard plan) with the recorder on. *)
let test_fig8_recorder_jobs_invariant () =
  let run jobs =
    Scenarios.Fig8.run ~seed:11L ~failures:4 ~shards:4 ~jobs ~instrument:true
      ~record:(Des.Time.ms 500)
      ~config:(Raft.Config.dynatune ())
      ()
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int64) "fig8 digest jobs 1 = jobs 4"
    r1.Scenarios.Fig4.digest r4.Scenarios.Fig4.digest;
  Alcotest.(check string) "fig8 recorder jobs 1 = jobs 4"
    (Recorder.to_csv r1.Scenarios.Fig4.recorder)
    (Recorder.to_csv r4.Scenarios.Fig4.recorder)

let prop_recorder_jobs_invariant =
  Q.Test.make ~count:3
    ~name:"fig4 recorder series: jobs 1 = jobs 2 on a pinned plan"
    Q.(int_bound 1000)
    (fun seed ->
      let seed = Int64.of_int (seed + 1) in
      let run jobs =
        let r =
          Scenarios.Fig4.run ~seed ~failures:4 ~shards:2 ~jobs
            ~instrument:true
            ~record:(Des.Time.ms 500)
            ~config:(Raft.Config.dynatune ())
            ()
        in
        Recorder.to_csv r.Scenarios.Fig4.recorder
      in
      String.equal (run 1) (run 2))

(* {1 Explain: synthetic stream} *)

(* A hand-built stream staging three elections: a first (no prior
   leader), a justified failover (n0 paused first), and a spurious
   deposition (n0 back up, yet n2 campaigns anyway). *)
let synthetic_stream () : entry list =
  let c ~kind ~node ~term ~seq = Cause.make ~kind ~node ~term ~seq in
  let ms = Des.Time.ms and n = Node_id.of_int in
  let r ~at ~cause ?(parent = Cause.none) ev =
    { Des.Mtrace.at = ms at; cause; parent; ev }
  in
  let timeout ~node ~term ~randomized =
    Probe.Timeout_expired
      {
        id = n node;
        term;
        randomized = ms randomized;
        et = ms 1000;
        h = ms 100;
        k = 1;
      }
  in
  let role ~node ~term role = Probe.Role_change { id = n node; role; term } in
  let campaign ~node ~term = Probe.Election_started { id = n node; term } in
  let vote ~node ~term ~from =
    Probe.Vote_received
      { id = n node; term; from = n from; granted = true; pre = false }
  in
  let boot = c ~kind:Cause.Internal ~node:0 ~term:0 ~seq:1 in
  let e1 = c ~kind:Cause.Election_timer ~node:0 ~term:0 ~seq:2 in
  let f1 = c ~kind:Cause.Fault ~node:0 ~term:1 ~seq:3 in
  let e2 = c ~kind:Cause.Election_timer ~node:1 ~term:1 ~seq:4 in
  let f2 = c ~kind:Cause.Fault ~node:0 ~term:2 ~seq:5 in
  let e3 = c ~kind:Cause.Election_timer ~node:2 ~term:2 ~seq:6 in
  [
    (* Election 1: cold start, n0 wins term 1. *)
    r ~at:150 ~cause:e1 ~parent:boot (timeout ~node:0 ~term:0 ~randomized:150);
    r ~at:150 ~cause:e1 (campaign ~node:0 ~term:1);
    r ~at:150 ~cause:e1 (role ~node:0 ~term:1 Raft.Types.Candidate);
    r ~at:200 ~cause:e1 (vote ~node:0 ~term:1 ~from:1);
    r ~at:200 ~cause:e1 (role ~node:0 ~term:1 Raft.Types.Leader);
    (* n1 tunes from measurements. *)
    r ~at:5000
      ~cause:(c ~kind:Cause.Internal ~node:1 ~term:1 ~seq:7)
      (Probe.Tuner_decision
         {
           id = n 1;
           term = 1;
           rtt_ms = 100.;
           rtt_std_ms = 0.;
           loss = 0.;
           et = ms 120;
           h = ms 120;
           k = 1;
           reason = Probe.Retuned;
         });
    (* Election 2: n0 pauses, n1 takes over — justified. *)
    r ~at:9000 ~cause:f1 (Probe.Node_paused { id = n 0; term = 1 });
    r ~at:9150 ~cause:e2 (timeout ~node:1 ~term:1 ~randomized:140);
    r ~at:9150 ~cause:e2 (campaign ~node:1 ~term:2);
    r ~at:9200 ~cause:e2 (vote ~node:1 ~term:2 ~from:2);
    r ~at:9200 ~cause:e2 (role ~node:1 ~term:2 Raft.Types.Leader);
    r ~at:9500 ~cause:f2 (Probe.Node_resumed { id = n 0; term = 2 });
    (* Election 3: n1 is live, yet n2 deposes it — spurious. *)
    r ~at:12000 ~cause:e3 (timeout ~node:2 ~term:2 ~randomized:130);
    r ~at:12000 ~cause:e3 (campaign ~node:2 ~term:3);
    r ~at:12050 ~cause:e3 (role ~node:2 ~term:3 Raft.Types.Leader);
  ]

let test_explain_analyze_synthetic () =
  let elections = Scenarios.Explain.analyze (synthetic_stream ()) in
  Alcotest.(check int) "three elections" 3 (List.length elections);
  let e1 = List.nth elections 0
  and e2 = List.nth elections 1
  and e3 = List.nth elections 2 in
  Alcotest.(check int) "first winner" 0 e1.Scenarios.Explain.winner;
  Alcotest.(check bool) "cold start justified" true e1.Scenarios.Explain.justified;
  Alcotest.(check (option int)) "no prior leader" None
    e1.Scenarios.Explain.prior_leader;
  (* The chain reassembles every entry stamped with the election cause. *)
  Alcotest.(check int) "chain length" 5
    (List.length e1.Scenarios.Explain.chain);
  Alcotest.(check bool) "chain starts at the timeout" true
    (match (List.hd e1.Scenarios.Explain.chain).ev with
    | Probe.Timeout_expired _ -> true
    | _ -> false);
  Alcotest.(check int) "failover winner" 1 e2.Scenarios.Explain.winner;
  Alcotest.(check bool) "failover justified" true e2.Scenarios.Explain.justified;
  Alcotest.(check (option int)) "deposed the paused leader" (Some 0)
    e2.Scenarios.Explain.prior_leader;
  Alcotest.(check bool) "provenance = last tuner decision" true
    (match e2.Scenarios.Explain.provenance with
    | Some { ev = Probe.Tuner_decision { id; _ }; _ } -> Node_id.to_int id = 1
    | _ -> false);
  Alcotest.(check bool) "live leader deposed is spurious" false
    e3.Scenarios.Explain.justified;
  Alcotest.(check (option int)) "spurious names the live leader" (Some 1)
    e3.Scenarios.Explain.prior_leader

let read_golden name =
  let path = Filename.concat "golden" name in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_explain_print_golden () =
  let rendered =
    Format.asprintf "%a" Scenarios.Explain.print
      (Scenarios.Explain.analyze (synthetic_stream ()))
  in
  (* Regenerate with: DYNATUNE_GOLDEN_REGEN=1 (run from test/). *)
  if Sys.getenv_opt "DYNATUNE_GOLDEN_REGEN" <> None then begin
    let oc = open_out_bin "golden/explain.golden.txt" in
    output_string oc rendered;
    close_out oc
  end;
  Alcotest.(check string) "explain output pinned" (read_golden "explain.golden.txt")
    rendered

(* {1 Explain: live stream} *)

(* Acceptance: the analysis reconstructs complete chains from a real
   run — every leadership change has a cause, its chain contains the
   timeout and campaign that produced it and ends in the winning role
   change, and every post-kill election is classified justified. *)
let test_explain_live_chains_complete () =
  let entries = Scenarios.Explain.run ~failures:1 () in
  let elections = Scenarios.Explain.analyze entries in
  Alcotest.(check bool) "at least initial + failover elections" true
    (List.length elections >= 2);
  List.iter
    (fun (e : Scenarios.Explain.election) ->
      Alcotest.(check bool) "winning role change has a cause" false
        (Cause.is_none e.cause);
      Alcotest.(check bool) "cause is an election timer" true
        (Cause.kind e.cause = Cause.Election_timer);
      let has p = List.exists (fun (en : entry) -> p en.ev) e.chain in
      Alcotest.(check bool) "chain has the timeout" true
        (has (function Probe.Timeout_expired _ -> true | _ -> false));
      Alcotest.(check bool) "chain has the campaign" true
        (has (function Probe.Election_started _ -> true | _ -> false));
      Alcotest.(check bool) "chain has granted votes" true
        (has (function
          | Probe.Vote_received { granted = true; _ } -> true
          | _ -> false));
      (* The chain crosses the network: the voters' entries carry the
         winner's cause. *)
      Alcotest.(check bool) "chain spans several nodes" true
        (List.length
           (List.sort_uniq compare
              (List.map
                 (fun (en : entry) -> Node_id.to_int (Probe.node en.ev))
                 e.chain))
        >= 2);
      (* Straggler vote responses and follower-side entries stamped with
         the same cause can land after the win, so "contains", not
         "ends at". *)
      Alcotest.(check bool) "chain contains the winning role change" true
        (has (function
          | Probe.Role_change { role = Raft.Types.Leader; id; _ } ->
              Node_id.to_int id = e.winner
          | _ -> false));
      Alcotest.(check bool) "kill-driven elections are justified" true
        e.justified)
    elections

(* Every live entry of the one-kill run, rendered line by line and
   digested: any change to what is recorded, in which order, with which
   stamps or in which words moves the pin. *)
let test_explain_live_pinned () =
  let lines =
    List.map Probe.render_entry (Scenarios.Explain.run ~failures:1 ())
  in
  Alcotest.(check int) "live record count" 853 (List.length lines);
  Alcotest.(check int64) "rendered live chain digest" 0xfed035142e983ce6L
    (Check.Digest.of_string (String.concat "\n" lines))

(* The causal rendering of the transitions the golden file does not
   reach. *)
let test_render_entry_transitions () =
  let n = Node_id.of_int in
  let line ev =
    Probe.render_entry
      { Des.Mtrace.at = Des.Time.ms 1500; cause = 0; parent = 0; ev }
  in
  let change = Raft.Log.Add_learner (n 3) in
  Alcotest.(check (list string)) "one line per transition"
    [
      "1.500s n1 t4 -<-- pre-vote aborted";
      "1.500s n1 t4 -<-- tuner reset";
      "1.500s n1 t4 -<-- pre-vote from n2: denied";
      "1.500s n1 t4 -<-- transfer to n3";
      "1.500s n1 t4 -<-- transfer aborted";
      "1.500s n1 t4 -<-- config appended " ^ Raft.Log.show_change change;
      "1.500s n1 t4 -<-- paused";
    ]
    (List.map line
       [
         Probe.Pre_vote_aborted { id = n 1; term = 4 };
         Probe.Tuner_reset { id = n 1; term = 4 };
         Probe.Vote_received
           { id = n 1; term = 4; from = n 2; granted = false; pre = true };
         Probe.Transfer_started { id = n 1; term = 4; target = n 3 };
         Probe.Transfer_aborted { id = n 1; term = 4 };
         Probe.Config_change
           { id = n 1; term = 4; index = 9; change; committed = false };
         Probe.Node_paused { id = n 1; term = 4 };
       ])

(* {1 Flight recorder} *)

(* Mirrors test_check's broken-toy pattern: a staged violation carries
   whatever the registered flight-recorder hook returns, and renders the
   observed trace's tail as its recent context. *)
let test_violation_carries_flight_dump () =
  let ids = Netsim.Node_id.range 2 in
  let a = Test_check.fake (List.nth ids 0)
  and b = Test_check.fake (List.nth ids 1) in
  let t =
    Check.create ~mode:Check.Always
      ~nodes:(List.map Test_check.view [ a; b ])
      ()
  in
  let trace = Des.Mtrace.create (Des.Engine.create ()) in
  Check.observe_trace t trace;
  let id = List.hd ids in
  let fault = Cause.make ~kind:Cause.Fault ~node:0 ~term:1 ~seq:1 in
  Des.Mtrace.emit trace ~cause:fault ~parent:Cause.none
    (Probe.Node_paused { id; term = 1 });
  Des.Mtrace.emit trace ~cause:fault ~parent:Cause.none
    (Probe.Node_resumed { id; term = 1 });
  let flight () = List.map Probe.render_entry (Des.Mtrace.tail trace 4) in
  Check.set_flight_recorder t flight;
  Check.check_now t;
  a.Test_check.role <- Raft.Types.Leader;
  a.Test_check.term <- 3;
  b.Test_check.role <- Raft.Types.Leader;
  b.Test_check.term <- 3;
  match Check.check_now t with
  | () -> Alcotest.fail "staged violation not raised"
  | exception Check.Violation v ->
      Alcotest.(check (list string)) "violation carries the causal tail"
        [ "0.000s n0 t1 ft:n0/t1#1<-- paused";
          "0.000s n0 t1 ft:n0/t1#1<-- resumed" ]
        v.Check.flight;
      Alcotest.(check (list string)) "recent renders the trace tail"
        [ "0.000s n0 paused"; "0.000s n0 resumed" ]
        v.Check.recent;
      (* The dump is part of the rendered report. *)
      let contains haystack needle =
        let n = String.length needle and h = String.length haystack in
        let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
        n = 0 || go 0
      in
      let rendered = Format.asprintf "%a" Check.pp_violation v in
      Alcotest.(check bool) "pp includes the flight recorder" true
        (List.for_all (contains rendered) (flight ()))

(* Probe-driven checks raise from inside the trace observer; the
   entry that broke the invariant is already retained, so it closes the
   report's recent context. *)
let test_probe_violation_recent_ends_at_culprit () =
  let ids = Netsim.Node_id.range 2 in
  let t =
    Check.create ~mode:Check.Always
      ~nodes:(List.map (fun id -> Test_check.view (Test_check.fake id)) ids)
      ()
  in
  let trace = Des.Mtrace.create (Des.Engine.create ()) in
  Check.observe_trace t trace;
  let lead id =
    Des.Mtrace.emit trace ~cause:0 ~parent:0
      (Probe.Role_change { id; role = Raft.Types.Leader; term = 2 })
  in
  lead (List.nth ids 0);
  match lead (List.nth ids 1) with
  | () -> Alcotest.fail "second leader in term 2 not caught"
  | exception Check.Violation v ->
      Alcotest.(check string) "invariant" "election-safety" v.Check.invariant;
      Alcotest.(check (list string)) "recent ends at the culprit"
        [ "0.000s n0 -> leader (term 2)"; "0.000s n1 -> leader (term 2)" ]
        v.Check.recent

let test_violation_default_flight_empty () =
  let ids = Netsim.Node_id.range 2 in
  let a = Test_check.fake (List.nth ids 0)
  and b = Test_check.fake (List.nth ids 1) in
  let t =
    Check.create ~mode:Check.Always
      ~nodes:(List.map Test_check.view [ a; b ])
      ()
  in
  Check.check_now t;
  a.Test_check.role <- Raft.Types.Leader;
  a.Test_check.term <- 3;
  b.Test_check.role <- Raft.Types.Leader;
  b.Test_check.term <- 3;
  match Check.check_now t with
  | () -> Alcotest.fail "staged violation not raised"
  | exception Check.Violation v ->
      Alcotest.(check (list string)) "no hook, no dump" [] v.Check.flight

let tests =
  [
    Alcotest.test_case "cause: pack/unpack round-trips" `Quick
      test_cause_roundtrip;
    Alcotest.test_case "cause: to_string" `Quick test_cause_to_string;
    to_alcotest prop_cause_roundtrip;
    Alcotest.test_case "switch: disabled is inert" `Quick
      test_forensics_disabled_inert;
    Alcotest.test_case "switch: causal tracking is neutral" `Quick
      test_tracking_is_neutral;
    Alcotest.test_case "recorder: cadence, dump, exports" `Quick
      test_recorder_cadence;
    Alcotest.test_case "recorder: disabled is inert" `Quick
      test_recorder_disabled_inert;
    Alcotest.test_case "recorder: merge shard prefixes" `Quick
      test_recorder_merge_prefixes;
    Alcotest.test_case "fig4: recorder series jobs-invariant, digest neutral"
      `Quick test_fig4_recorder_jobs_invariant;
    Alcotest.test_case "fig8: recorder series jobs-invariant" `Quick
      test_fig8_recorder_jobs_invariant;
    to_alcotest prop_recorder_jobs_invariant;
    Alcotest.test_case "explain: synthetic stream analysis" `Quick
      test_explain_analyze_synthetic;
    Alcotest.test_case "explain: rendered output (golden)" `Quick
      test_explain_print_golden;
    Alcotest.test_case "explain: live chains complete" `Quick
      test_explain_live_chains_complete;
    Alcotest.test_case "explain: live chain pinned" `Quick
      test_explain_live_pinned;
    Alcotest.test_case "check: violation carries flight dump" `Quick
      test_violation_carries_flight_dump;
    Alcotest.test_case "explain: causal rendering of transitions" `Quick
      test_render_entry_transitions;
    Alcotest.test_case "check: probe violation's recent ends at culprit"
      `Quick test_probe_violation_recent_ends_at_culprit;
    Alcotest.test_case "check: default flight dump empty" `Quick
      test_violation_default_flight_empty;
  ]
