(* The three workloads.  Each call is one repeat: build the system
   (timed as set-up), run the measured phase (timed), then — outside the
   timed window — read the counters and run the output checks.  A repeat
   is a pure function of the seed in everything it simulates; only its
   host timings vary. *)

module Cluster = Harness.Cluster
module Gm = Multiraft.Group_manager
module Router = Multiraft.Router

type repeat = {
  setup_s : float;  (* create + initial election + simulated warm-up *)
  create_s : float;
  warmup_s : float;
  measure_s : float;
  ops : int;
  attempted : int;
  failed : int;
  events : int;  (* DES events processed in the measured phase *)
  fingerprint : int64;
  op_latencies : Stats.Summary.t;  (* ms *)
  layer : (string * float) list;  (* simulated counts, exact per seed *)
  calls : (string * float) list;  (* call counts that scale replay loops *)
  errors : string list;  (* failed output checks *)
  notes : string list;  (* per-level lines for the stderr report *)
}

let now = Spans.now

(* {2 Fingerprint of the modeled outputs}

   FNV-1a over 64-bit words.  Deliberately the benchmark's own: it
   covers what the benchmark reports (samples, per-level counts and
   latencies), independently of the harness's probe-trace digest. *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L
let mix h (w : int64) = Int64.mul (Int64.logxor h w) fnv_prime
let mix_int h i = mix h (Int64.of_int i)
let mix_float h f = mix h (Int64.bits_of_float f)

(* Count, mean, std and a thousand quantiles of a summary: the mean and
   std move with any single sample, and the quantiles keep the check
   from growing the heap with the sample count. *)
let mix_summary h s =
  let h = mix_int h (Stats.Summary.count s) in
  let h = mix_float h (Stats.Summary.mean s) in
  let h = mix_float h (Stats.Summary.std s) in
  List.fold_left
    (fun h (v, _) -> mix_float h v)
    h
    (Stats.Summary.cdf s ~points:1000)

let mix_samples h l = mix_summary h (Stats.Summary.of_list l)

(* {2 Phase measurement} *)

(* Simulator counters summed over the engines and fabrics of a system. *)
type sim_counts = {
  processed : int;
  cancelled : int;
  in_place : int;  (* cancels the timing wheel absorbed *)
  cascades : int;
  sent : int;
  delivered : int;
  lost : int;
  dropped_paused : int;
  retransmissions : int;
}

let sim_counts ~engines ~fabrics =
  let st = List.map Des.Engine.stats engines in
  let des f = List.fold_left (fun a s -> a + f s) 0 st in
  let c = List.map Netsim.Fabric.counters fabrics in
  let net f = List.fold_left (fun a x -> a + f x) 0 c in
  {
    processed = des (fun s -> s.Des.Engine.processed);
    cancelled = des (fun s -> s.Des.Engine.cancelled);
    in_place = des (fun s -> s.Des.Engine.cancelled_in_place);
    cascades = des (fun s -> s.Des.Engine.cascades);
    sent = net (fun x -> x.Netsim.Fabric.sent);
    delivered = net (fun x -> x.Netsim.Fabric.delivered);
    lost = net (fun x -> x.Netsim.Fabric.lost);
    dropped_paused = net (fun x -> x.Netsim.Fabric.dropped_paused);
    retransmissions =
      List.fold_left
        (fun a f ->
          List.fold_left
            (fun a (_, (l : Netsim.Link.counters)) -> a + l.retransmissions)
            a
            (Netsim.Fabric.link_counters f))
        0 fabrics;
  }

let zip_counts op a b =
  {
    processed = op a.processed b.processed;
    cancelled = op a.cancelled b.cancelled;
    in_place = op a.in_place b.in_place;
    cascades = op a.cascades b.cascades;
    sent = op a.sent b.sent;
    delivered = op a.delivered b.delivered;
    lost = op a.lost b.lost;
    dropped_paused = op a.dropped_paused b.dropped_paused;
    retransmissions = op a.retransmissions b.retransmissions;
  }

(* What the measured phase moved: host time, simulator counts, GC. *)
type phase = {
  p_s : float;
  p_sim : sim_counts;
  p_minor : float;
  p_major : float;
  p_minor_gcs : int;
  p_major_gcs : int;
}

(* Time [f] and take the simulator and GC counters it moved. *)
let measured ~engines ~fabrics f =
  let c0 = sim_counts ~engines ~fabrics in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = Spans.time "measured" f in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      p_s = t1 -. t0;
      p_sim = zip_counts ( - ) (sim_counts ~engines ~fabrics) c0;
      p_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      p_major = g1.Gc.major_words -. g0.Gc.major_words;
      p_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      p_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* {2 Layer counters}

   Counts and fractions cover the measured phase only.  The high-water
   marks ([des.*_high_water], [net.egress_depth_max]) are the engines' and
   links' lifetime peaks, set-up and warm-up included. *)

let des_layer ~engines ~(phase : phase) ~ops =
  let c = phase.p_sim in
  let top f =
    List.fold_left (fun a e -> max a (f (Des.Engine.stats e))) 0 engines
  in
  [
    ("des.events", float_of_int c.processed);
    ("des.events_per_op", per c.processed ops);
    ("des.cancel_frac", per c.cancelled (c.processed + c.cancelled));
    ("des.wheel_absorb_frac", per c.in_place c.cancelled);
    ("des.cascades", float_of_int c.cascades);
    ( "des.heap_high_water",
      float_of_int (top (fun s -> s.Des.Engine.heap_high_water)) );
    ( "des.wheel_high_water",
      float_of_int (top (fun s -> s.Des.Engine.wheel_high_water)) );
  ]

let net_layer ~fabrics ~(phase : phase) ~ops =
  let c = phase.p_sim in
  let depths = List.concat_map Netsim.Fabric.link_queue_depths fabrics in
  [
    ("net.msgs_per_op", per c.sent ops);
    ("net.delivered_frac", per c.delivered c.sent);
    ("net.lost", float_of_int c.lost);
    ("net.dropped_paused", float_of_int c.dropped_paused);
    ("net.retransmissions", float_of_int c.retransmissions);
    ( "net.egress_depth_max",
      float_of_int (List.fold_left (fun a (_, d) -> max a d) 0 depths) );
  ]

(* Follower tuner state: the leader runs no tuner for itself. *)
let tuner_layer ~rtt_ms clusters =
  let rows =
    List.concat_map
      (fun cluster ->
        let leader = Option.map Raft.Node.id (Cluster.leader cluster) in
        List.filter_map
          (fun id ->
            if leader = Some id then None
            else
              match
                Raft.Server.tuner (Raft.Node.server (Cluster.node cluster id))
              with
              | Some tuner when Dynatune.Tuner.samples tuner > 0 ->
                  Some tuner
              | Some _ | None -> None)
          (Cluster.node_ids cluster))
      clusters
  in
  let avg f = mean (List.map f rows) in
  let ms f t = Des.Time.to_ms_f (f t) in
  [
    ( "tuner.samples",
      float_of_int
        (List.fold_left (fun a t -> a + Dynatune.Tuner.samples t) 0 rows) );
    ("tuner.et_ms", avg (ms Dynatune.Tuner.election_timeout));
    ("tuner.h_ms", avg (ms Dynatune.Tuner.heartbeat_interval));
    ( "tuner.rtt_err",
      avg (fun t ->
          Float.abs (ms Dynatune.Tuner.rtt_mean t -. rtt_ms) /. rtt_ms) );
    ("tuner.loss_est", avg Dynatune.Tuner.loss_rate);
  ]

(* Raft counters from the traced run's telemetry registry (empty, hence
   zeros, when the registry is disabled). *)
type raft_counts = {
  elections : int;
  prevote_aborts : int;
  batch_sum : float;  (* append batch sizes, from histogram bin midpoints *)
  batches : int;
  heartbeats : int;  (* heartbeat RTT samples *)
}

let raft_counts snapshot =
  let ends_with ~suffix s =
    let n = String.length s and k = String.length suffix in
    n >= k && String.sub s (n - k) k = suffix
  in
  let count scope name =
    List.fold_left
      (fun a ((k : Telemetry.Metrics.key), v) ->
        match v with
        | Telemetry.Metrics.Count c
          when ends_with ~suffix:scope k.scope && k.name = name ->
            a + c
        | _ -> a)
      0 snapshot
  in
  let hists scope name =
    List.filter_map
      (fun ((k : Telemetry.Metrics.key), v) ->
        match v with
        | Telemetry.Metrics.Series h
          when ends_with ~suffix:scope k.scope && k.name = name ->
            Some h
        | _ -> None)
      snapshot
  in
  let batch_sum, batches =
    List.fold_left
      (fun (s, n) h ->
        let s = ref s and n = ref n in
        for i = 0 to Stats.Histogram.bins h - 1 do
          let lo, hi = Stats.Histogram.bin_bounds h i in
          let c = Stats.Histogram.bin_count h i in
          s := !s +. (float_of_int c *. ((lo +. hi) /. 2.));
          n := !n + c
        done;
        (!s, !n))
      (0., 0)
      (hists "raft" "append_batch_size")
  in
  {
    elections = count "raft" "elections";
    prevote_aborts = count "raft" "prevote_aborts";
    batch_sum;
    batches;
    heartbeats =
      List.fold_left
        (fun a h -> a + Stats.Histogram.count h)
        0 (hists "rpc" "hb_rtt_ms");
  }

(* What moved between the snapshots taken around the measured phase;
   returns the layer metrics and the heartbeat count. *)
let telemetry_layer ~before ~after =
  let a = raft_counts after and b = raft_counts before in
  let batches = a.batches - b.batches in
  ( [
      ("raft.elections", float_of_int (a.elections - b.elections));
      ( "raft.prevote_aborts",
        float_of_int (a.prevote_aborts - b.prevote_aborts) );
      ( "raft.append_batch_mean",
        if batches = 0 then 0.
        else (a.batch_sum -. b.batch_sum) /. float_of_int batches );
    ],
    a.heartbeats - b.heartbeats )

let gc_layer (p : phase) =
  [
    ("gc.minor_words_per_event", p.p_minor /. float_of_int (max 1 p.p_sim.processed));
    ("gc.major_words_per_event", p.p_major /. float_of_int (max 1 p.p_sim.processed));
    ("gc.minor_collections", float_of_int p.p_minor_gcs);
    ("gc.major_collections", float_of_int p.p_major_gcs);
  ]

let registry traced = Telemetry.Metrics.create ~enabled:traced ()

(* Build a system and warm it up; returns it with both host times. *)
let set_up create warm =
  let t0 = now () in
  let sys = Spans.time "create" create in
  let t1 = now () in
  Spans.time "warmup" (fun () -> warm sys);
  (sys, t1 -. t0, now () -. t1)

(* {2 failover: the Fig 4 campaign} *)

let failover_rtt_ms = 100.

(* Leader kills per mode.  The paper uses 1000; four times that keeps
   the seed-to-seed spread of the detection median near 1%, and p99 has
   40 samples beyond it. *)
let failover_quota = 4000
let failover_warmup = Des.Time.sec 30

type mode_run = {
  raw : Scenarios.Measure.raw;
  attempts : int;
  m_create_s : float;
  m_warmup_s : float;
  m_phase : phase;
  m_tuner : (string * float) list;
  m_before : Telemetry.Metrics.snapshot;  (* registry before the kills *)
  m_after : Telemetry.Metrics.snapshot;
  m_engine : Des.Engine.t;
  m_fabric : Raft.Rpc.message Netsim.Fabric.t;
}

(* Same construction sequence as [Scenarios.Fig4.run] with one shard, so
   the samples must equal that figure's for the same seed and quota. *)
let failover_setup ~seed ~traced config =
  let conditions =
    Netsim.Conditions.(
      constant (profile ~rtt_ms:failover_rtt_ms ~jitter:0.02 ()))
  in
  set_up
    (fun () ->
      Cluster.create ~seed ~n:5 ~config ~conditions ~telemetry:(registry traced)
        ())
    (fun cluster ->
      Cluster.start cluster;
      (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
      | Some _ -> ()
      | None -> failwith "failover: initial election failed");
      Cluster.run_for cluster failover_warmup)

let failover_mode ~seed ~traced ~quota config =
  let cluster, create_s, warmup_s = failover_setup ~seed ~traced config in
  let counts = Telemetry.Metrics.create () in
  let attempts =
    Telemetry.Metrics.counter counts ~scope:"measure" ~name:"attempts" ()
  in
  let engine = Cluster.engine cluster and fabric = Cluster.fabric cluster in
  let m_before = Telemetry.Metrics.snapshot (Cluster.telemetry cluster) in
  let raw, m_phase =
    measured ~engines:[ engine ] ~fabrics:[ fabric ] (fun () ->
        Scenarios.Measure.failures ~metrics:counts cluster ~quota)
  in
  {
    raw;
    attempts = Telemetry.Metrics.Counter.value attempts;
    m_create_s = create_s;
    m_warmup_s = warmup_s;
    m_phase;
    m_tuner = tuner_layer ~rtt_ms:failover_rtt_ms [ cluster ];
    m_before;
    m_after = Telemetry.Metrics.snapshot (Cluster.telemetry cluster);
    m_engine = engine;
    m_fabric = fabric;
  }

let add_phase a b =
  {
    p_s = a.p_s +. b.p_s;
    p_sim = zip_counts ( + ) a.p_sim b.p_sim;
    p_minor = a.p_minor +. b.p_minor;
    p_major = a.p_major +. b.p_major;
    p_minor_gcs = a.p_minor_gcs + b.p_minor_gcs;
    p_major_gcs = a.p_major_gcs + b.p_major_gcs;
  }

let failover ?(quota = failover_quota) ~seed ~traced () =
  let base = failover_mode ~seed ~traced ~quota (Raft.Config.static ()) in
  let dyn = failover_mode ~seed ~traced ~quota (Raft.Config.dynatune ()) in
  let modes = [ base; dyn ] in
  let phase = add_phase base.m_phase dyn.m_phase in
  let measured_total = base.raw.measured + dyn.raw.measured in
  let shortfall m = quota - m.raw.measured in
  let attempted = List.fold_left (fun a m -> a + m.attempts + shortfall m) 0 modes in
  let failed =
    List.fold_left
      (fun a m -> a + (m.attempts - m.raw.measured) + shortfall m)
      0 modes
  in
  let fingerprint =
    List.fold_left
      (fun h m ->
        let r = m.raw in
        let h = mix_int (mix_int h r.measured) r.splits in
        List.fold_left mix_samples h
          [ r.detection; r.majority; r.ots; r.election; r.randomized; r.rounds ])
      fnv_offset modes
  in
  let summary = Stats.Summary.of_list in
  let detect = summary dyn.raw.detection and ots = summary dyn.raw.ots in
  let engines = [ base.m_engine; dyn.m_engine ] in
  let fabrics = [ base.m_fabric; dyn.m_fabric ] in
  let tel, heartbeats =
    Telemetry.Metrics.(
      telemetry_layer
        ~before:(merge [ base.m_before; dyn.m_before ])
        ~after:(merge [ base.m_after; dyn.m_after ]))
  in
  let layer =
    des_layer ~engines ~phase ~ops:measured_total
    @ net_layer ~fabrics ~phase ~ops:measured_total
    @ tel
    @ [
        ("raft.split_vote_frac", per dyn.raw.splits dyn.raw.measured);
        ("raft.rounds_per_failover", mean dyn.raw.rounds);
        ("raft.base_detect_p50_ms", Stats.Summary.median (summary base.raw.detection));
        ("raft.base_ots_p50_ms", Stats.Summary.median (summary base.raw.ots));
        ("tuner.detect_p50_ms", Stats.Summary.median detect);
        ("tuner.detect_p99_ms", Stats.Summary.percentile detect 99.);
        ("raft.ots_p50_ms", Stats.Summary.median ots);
        ("raft.ots_p99_ms", Stats.Summary.percentile ots 99.);
      ]
    @ dyn.m_tuner @ gc_layer phase
  in
  let errors =
    List.filter_map
      (fun m ->
        if m.raw.measured = quota then None
        else
          Some
            (Printf.sprintf
               "failover: %d of %d failovers measured within %d attempts"
               m.raw.measured quota m.attempts))
      modes
  in
  {
    setup_s = base.m_create_s +. base.m_warmup_s +. dyn.m_create_s +. dyn.m_warmup_s;
    create_s = base.m_create_s +. dyn.m_create_s;
    warmup_s = base.m_warmup_s +. dyn.m_warmup_s;
    measure_s = phase.p_s;
    ops = measured_total;
    attempted;
    failed;
    events = phase.p_sim.processed;
    fingerprint;
    (* Dynatune's detection time, not its OTS: most Dynatune failovers
       need a second election round, so OTS is bimodal (about 350 ms
       and 1400 ms) with its median on the edge between the modes, and
       the OTS median jumps between them from seed to seed. *)
    op_latencies = detect;
    layer;
    calls = [ ("heartbeats", float_of_int heartbeats) ];
    errors;
    notes =
      List.map
        (fun m ->
          let r = m.raw in
          let p a q = Stats.Summary.percentile (summary a) q in
          Printf.sprintf
            "%d failovers: detect p50 %.1f p99 %.1f  ots p50 %.1f p99 %.1f ms  split %.3f"
            r.measured (p r.detection 50.) (p r.detection 99.) (p r.ots 50.)
            (p r.ots 99.) (per r.splits r.measured))
        modes;
  }

(* The cross-check: the benchmark's samples against [Scenarios.Fig4.run]
   for the same config, seed and quota. *)
let failover_crosscheck ~seed ~quota =
  List.concat_map
    (fun config ->
      let mine = failover_mode ~seed ~traced:false ~quota config in
      let fig = Scenarios.Fig4.run ~seed ~failures:quota ~config () in
      let same name (a : float list) (b : Stats.Summary.t) =
        let s = Stats.Summary.of_list a in
        let n = Stats.Summary.count s in
        if
          n = Stats.Summary.count b
          && Stats.Summary.mean s = Stats.Summary.mean b
          && Stats.Summary.std s = Stats.Summary.std b
          && Stats.Summary.cdf s ~points:n = Stats.Summary.cdf b ~points:n
        then []
        else
          [
            Printf.sprintf "failover %s: %s samples differ from Fig4.run"
              (Raft.Config.mode_name config) name;
          ]
      in
      same "detection" mine.raw.detection fig.Scenarios.Fig4.detection
      @ same "ots" mine.raw.ots fig.Scenarios.Fig4.ots
      @ same "rounds" mine.raw.rounds fig.Scenarios.Fig4.rounds)
    [ Raft.Config.static (); Raft.Config.dynatune () ]

(* {2 KV workloads: the fig5sat wire model} *)

let kv_rtt_ms = Kv_driver.rtt_ms
let kv_serialization = Des.Time.us 100
let kv_settle = Des.Time.sec 1
let kv_warmup = Des.Time.sec 10

let kv_config () =
  Raft.Config.with_replication ~max_inflight_appends:16
    ~append_backpressure:64 ~max_entries_per_append:64 ~priority_lanes:true
    (Raft.Config.dynatune ())

let kv_conditions () =
  Netsim.Conditions.(constant (profile ~rtt_ms:kv_rtt_ms ~jitter:0.05 ()))

(* Output checks on the KV state after the drain and a settle period
   (so followers learn the final commit index): replicas of a group hold
   equal state, and every group applied at least as many entries as the
   clients saw acknowledged. *)
let kv_state_checks clusters ~acked =
  let digest_errors =
    List.concat
    @@ List.mapi
      (fun g cluster ->
        match
          List.sort_uniq compare
            (List.map
               (fun id -> Kvsm.Store.state_digest (Cluster.store cluster id))
               (Cluster.node_ids cluster))
        with
        | [ _ ] -> []
        | _ -> [ Printf.sprintf "group %d: replicas disagree on state" g ])
      clusters
  in
  let applied cluster =
    List.map
      (fun id -> Kvsm.Store.applied_count (Cluster.store cluster id))
      (Cluster.node_ids cluster)
  in
  let sum = List.fold_left ( + ) 0 in
  let applied_min =
    sum (List.map (fun c -> List.fold_left min max_int (applied c)) clusters)
  in
  let applied_all = sum (List.concat_map applied clusters) in
  let applied_errors =
    if applied_min >= acked then []
    else [ Printf.sprintf "applied %d < acknowledged %d" applied_min acked ]
  in
  (digest_errors @ applied_errors, applied_all)

type kv_plan = {
  rates : float list;
  reference : float;  (* fixed rate below the knee: the latency reading *)
}

let kv_result ~plan ~levels ~phase ~engine ~fabric ~create_s ~warmup_s
    ~clusters ~telemetry ~before ~extra_layer ~extra_calls ~extra_errors =
  let sum f = List.fold_left (fun a l -> a + f l) 0 levels in
  let committed = sum (fun l -> l.Kv_driver.committed) in
  let offered = sum (fun l -> l.Kv_driver.offered) in
  let submit_calls = sum (fun l -> l.Kv_driver.submit_calls) in
  let redirects = sum (fun l -> l.Kv_driver.redirects) in
  let reference =
    List.find (fun l -> l.Kv_driver.rate = plan.reference) levels
  in
  let tuner = tuner_layer ~rtt_ms:kv_rtt_ms clusters in
  let tel, heartbeats =
    telemetry_layer ~before ~after:(Telemetry.Metrics.snapshot telemetry)
  in
  Des.Engine.run_for engine kv_settle;
  let state_errors, applies = kv_state_checks clusters ~acked:committed in
  let lowest = List.hd levels in
  let lowest_errors =
    if Kv_driver.sustained lowest then []
    else
      [
        Printf.sprintf "lowest level %.0f req/s does not read as sustained"
          lowest.Kv_driver.rate;
      ]
  in
  let fingerprint =
    List.fold_left
      (fun h (l : Kv_driver.level) ->
        let h = mix_float h l.rate in
        let h = List.fold_left mix_int h [ l.offered; l.committed; l.redirects ] in
        mix_summary h (Lazy.force l.latencies))
      fnv_offset levels
  in
  let layer =
    des_layer ~engines:[ engine ] ~phase ~ops:committed
    @ net_layer ~fabrics:[ fabric ] ~phase ~ops:committed
    @ tel
    @ [
        ("raft.submit_calls", float_of_int submit_calls);
        ("raft.not_leader", float_of_int redirects);
        ("kv.offered", float_of_int offered);
        ("kv.committed", float_of_int committed);
        ("kv.failed", float_of_int (offered - committed));
        ("kv.redirects", float_of_int redirects);
        ( "kv.backlog_max",
          float_of_int
            (List.fold_left (fun a l -> max a l.Kv_driver.backlog_max) 0 levels) );
        ("kv.applies_per_commit", per applies committed);
        ("kv.sustained_rps", Kv_driver.sustained_rps levels);
      ]
    @ tuner @ gc_layer phase @ extra_layer
  in
  {
    setup_s = create_s +. warmup_s;
    create_s;
    warmup_s;
    measure_s = phase.p_s;
    ops = committed;
    attempted = offered;
    failed = offered - committed;
    events = phase.p_sim.processed;
    fingerprint;
    op_latencies = Lazy.force reference.Kv_driver.latencies;
    layer;
    calls =
      [
        ("heartbeats", float_of_int heartbeats);
        ("payloads_encoded", float_of_int offered);
        ("payloads_decoded", float_of_int applies);
        ("applies", float_of_int applies);
        ("submits", float_of_int submit_calls);
      ]
      @ extra_calls;
    errors = state_errors @ lowest_errors @ extra_errors;
    notes =
      List.map
        (fun (l : Kv_driver.level) ->
          let latencies = Lazy.force l.latencies in
          Printf.sprintf
            "%6.0f req/s: offered %d committed %d redirects %d backlog %d \
             p50 %.1f p99 %.1f ms drain %.2fs%s"
            l.rate l.offered l.committed l.redirects l.backlog_max
            (Stats.Summary.median latencies)
            (Stats.Summary.percentile latencies 99.)
            l.drain_s
            (if Kv_driver.sustained l then " sustained" else ""))
        levels;
  }

(* kv_saturation: one 5-server group; the ladder spans the knee. *)
let saturation_plan =
  { rates = [ 2000.; 4000.; 6000.; 8000.; 10000.; 12000. ]; reference = 4000. }

let saturation_setup ~seed ~traced =
  set_up
    (fun () ->
      let cluster =
        Cluster.create ~seed ~n:5 ~config:(kv_config ())
          ~conditions:(kv_conditions ()) ~telemetry:(registry traced) ()
      in
      Netsim.Fabric.set_uniform_serialization (Cluster.fabric cluster)
        kv_serialization;
      cluster)
    (fun cluster ->
      Cluster.start cluster;
      (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 30) with
      | Some _ -> ()
      | None -> failwith "kv_saturation: initial election failed");
      Cluster.run_for cluster kv_warmup)

let kv_saturation ~seed ~traced () =
  let cluster, create_s, warmup_s = saturation_setup ~seed ~traced in
  let engine = Cluster.engine cluster and fabric = Cluster.fabric cluster in
  let telemetry = Cluster.telemetry cluster in
  let before = Telemetry.Metrics.snapshot telemetry in
  let levels, phase =
    measured ~engines:[ engine ] ~fabrics:[ fabric ] (fun () ->
        Kv_driver.run_ladder ~engine ~target:(Cluster.submit_target cluster)
          saturation_plan.rates)
  in
  kv_result ~plan:saturation_plan ~levels ~phase ~engine ~fabric ~create_s
    ~warmup_s ~clusters:[ cluster ] ~telemetry ~before ~extra_layer:[]
    ~extra_calls:[] ~extra_errors:[]

(* kv_multiraft: 64 three-replica groups behind the shard router. *)
let multiraft_groups = 64

let multiraft_plan =
  { rates = [ 5000.; 10000.; 20000.; 40000.; 80000. ]; reference = 20000. }

let multiraft_setup ~seed ~traced =
  set_up
    (fun () ->
      let m =
        Gm.create ~seed ~conditions:(kv_conditions ())
          ~telemetry:(registry traced) ~groups:multiraft_groups ~replicas:3
          ~config:(kv_config ()) ()
      in
      Netsim.Fabric.set_uniform_serialization (Gm.fabric m) kv_serialization;
      m)
    (fun m ->
      Gm.start m;
      if not (Gm.await_leaders m ~timeout:(Des.Time.sec 30)) then
        failwith "kv_multiraft: initial elections failed";
      Gm.run_for m kv_warmup)

let kv_multiraft ~seed ~traced () =
  let m, create_s, warmup_s = multiraft_setup ~seed ~traced in
  let leaderless = Gm.leaderless m in
  let router = Router.create m in
  let engine = Gm.engine m and fabric = Gm.fabric m in
  let telemetry = Gm.telemetry m in
  let before = Telemetry.Metrics.snapshot telemetry in
  let levels, phase =
    measured ~engines:[ engine ] ~fabrics:[ fabric ] (fun () ->
        Kv_driver.run_ladder ~engine ~target:(Router.target router)
          ~route:(Router.route router) multiraft_plan.rates)
  in
  let clusters = List.init (Gm.group_count m) (Gm.group m) in
  let hits = Router.hint_hits router and misses = Router.hint_misses router in
  kv_result ~plan:multiraft_plan ~levels ~phase ~engine ~fabric ~create_s
    ~warmup_s ~clusters ~telemetry ~before
    ~extra_layer:
      [
        ("router.hit_frac", per hits (hits + misses));
        ("router.refreshes", float_of_int (Router.hint_refreshes router));
        ("mr.create_s", create_s);
        ("mr.leaderless_after_warmup", float_of_int leaderless);
      ]
    ~extra_calls:[ ("routes", float_of_int (hits + misses)) ]
    ~extra_errors:
      (if leaderless = 0 then []
       else [ Printf.sprintf "%d groups leaderless after warm-up" leaderless ])

(* {2 The workload table} *)

type workload = {
  repeat : seed:int64 -> traced:bool -> repeat;
  setup_only : seed:int64 -> float;
      (* build and warm the system exactly as a repeat does, then drop it:
         extra samples for the set-up median *)
  rtt_ms : float;  (* base RTT, the shape of the tuner replay's input *)
  crosscheck : seed:int64 -> string list;  (* traced runs only *)
}

let setup_total (_, create_s, warmup_s) = create_s +. warmup_s

let all =
  [
    ( "failover",
      {
        repeat = (fun ~seed ~traced -> failover ~seed ~traced ());
        setup_only =
          (fun ~seed ->
            List.fold_left
              (fun a config ->
                a +. setup_total (failover_setup ~seed ~traced:false config))
              0.
              [ Raft.Config.static (); Raft.Config.dynatune () ]);
        rtt_ms = failover_rtt_ms;
        crosscheck =
          (fun ~seed -> failover_crosscheck ~seed ~quota:failover_quota);
      } );
    ( "kv_saturation",
      {
        repeat = (fun ~seed ~traced -> kv_saturation ~seed ~traced ());
        setup_only =
          (fun ~seed -> setup_total (saturation_setup ~seed ~traced:false));
        rtt_ms = kv_rtt_ms;
        crosscheck = (fun ~seed:_ -> []);
      } );
    ( "kv_multiraft",
      {
        repeat = (fun ~seed ~traced -> kv_multiraft ~seed ~traced ());
        setup_only =
          (fun ~seed -> setup_total (multiraft_setup ~seed ~traced:false));
        rtt_ms = kv_rtt_ms;
        crosscheck = (fun ~seed:_ -> []);
      } );
  ]
