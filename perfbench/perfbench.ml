(* The repository's benchmark: what the simulator costs in host time and
   memory, and what the modeled system does in simulated time.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe selftest

   A run repeats its workload (set-up, then the measured phase) until
   [--seconds] have passed, at least [min_repeats] times.  It reports
   host times at a reference speed (calibrate.ml): the op rate over all
   repeats and the median set-up time.  The modeled outputs of every
   repeat must be identical (same seed); the output checks run outside
   the timed window.  The last line of stdout is one JSON object; a human-readable
   report goes to stderr.  With [--trace 1] the run alternates untraced
   and traced repeats (spans, sampling profiler, telemetry registry, GC
   pauses) and reports the per-layer metrics instead of the end-to-end
   ones.  Exits 1 when an output check fails. *)

let min_repeats = 3

(* Set-up is short next to the measured phase, so a run adds set-up-only
   rounds until it has this many set-up samples for the median. *)
let setup_samples = 11
let max_repeats = 1000
let now = Spans.now

(* Peak resident set (VmHWM), MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ops_per_s (r : Workloads.repeat) = float_of_int r.ops /. r.measure_s

(* {2 Result line} *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* {2 Output checks across repeats} *)

let consistency_errors (repeats : Workloads.repeat list) =
  let errs = List.concat_map (fun (r : Workloads.repeat) -> r.errors) repeats in
  let prints =
    List.sort_uniq Int64.compare
      (List.map (fun (r : Workloads.repeat) -> r.fingerprint) repeats)
  in
  (if List.length prints > 1 then
     [
       Printf.sprintf
         "modeled outputs differ across %d repeats of one seed (%d fingerprints)"
         (List.length repeats) (List.length prints);
     ]
   else [])
  @ List.sort_uniq compare errs

let totals repeats =
  List.fold_left
    (fun (a, f) (r : Workloads.repeat) -> (a + r.attempted, f + r.failed))
    (0, 0) repeats

(* {2 Untraced run: the end-to-end metrics} *)

(* One round: compact the heap, time the calibration kernel, run [f]. *)
let calibrated cal f =
  Gc.compact ();
  Calibrate.run cal;
  let t0 = now () in
  let r = f () in
  cal.Calibrate.round_s <- now () -. t0;
  r

let end_to_end ~name ~run ~setup_only ~seed ~seconds =
  let cal = Calibrate.create () in
  let deadline = now () +. seconds in
  (* The peak RSS is read after the first repeat, before any kernel has
     run: later repeats fragment the heap a little more each, and the
     number of repeats follows the host's speed. *)
  let peak = ref Float.nan in
  let rec loop acc n =
    if n >= max_repeats || (n >= min_repeats && now () >= deadline) then
      List.rev acc
    else begin
      let r = calibrated cal (fun () -> run ~traced:false) in
      if n = 0 then peak := peak_rss_mb ();
      loop (r :: acc) (n + 1)
    end
  in
  let repeats = loop [] 0 in
  let setups =
    List.map (fun (r : Workloads.repeat) -> r.setup_s) repeats
    @ List.init
        (max 0 (setup_samples - List.length repeats))
        (fun _ -> calibrated cal setup_only)
  in
  let first : Workloads.repeat = List.hd repeats in
  (* Host times at the reference speed (calibrate.ml).  The op rate is
     all ops over all measured time, a time average like the kernel's
     mean, so both cover the same mix of fast and slow spells.  Set-up
     times are short and take the median, which a single preemption does
     not move. *)
  let scale = Calibrate.scale cal in
  let raw_setup_s = Stats.Summary.(median (of_list setups)) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. repeats in
  let raw_ops_per_s =
    sum (fun (r : Workloads.repeat) -> float_of_int r.ops)
    /. sum (fun (r : Workloads.repeat) -> r.measure_s)
  in
  let metrics =
    Stats.Summary.
      [
        ("setup_s", "s", raw_setup_s *. scale);
        ("sim_ops_per_s", "ops/s", raw_ops_per_s /. scale);
        ("peak_rss_mb", "MB", !peak);
        ("op_p50_ms", "ms", median first.op_latencies);
        ("op_p99_ms", "ms", percentile first.op_latencies 99.);
      ]
  in
  Printf.eprintf "%s seed %d: %d repeats, %d ops/repeat, %d latency samples\n"
    name seed (List.length repeats) first.ops
    (Stats.Summary.count first.op_latencies);
  List.iter (fun l -> Printf.eprintf "  %s\n" l) first.notes;
  List.iter
    (fun (r : Workloads.repeat) ->
      Printf.eprintf "  setup %.4fs  measured %.4fs  %.0f ops/s  fp %016Lx\n"
        r.setup_s r.measure_s (ops_per_s r) r.fingerprint)
    repeats;
  Printf.eprintf "  setup samples (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  Printf.eprintf
    "  raw: setup median %.5fs, %.1f ops/s; kernel mean %.2f ms over %d \
     samples (reference %.2f ms)\n"
    raw_setup_s raw_ops_per_s
    (Calibrate.mean_s cal *. 1e3)
    (List.length cal.samples)
    (Calibrate.reference_s *. 1e3);
  let errors =
    consistency_errors repeats
    @ List.filter_map
        (fun (n, _, v) ->
          if Float.is_finite v && v > 0. then None
          else Some (Printf.sprintf "metric %s is %g" n v))
        metrics
  in
  (metrics, repeats, errors)

(* {2 Self-test} *)

let spin_until t f =
  let n = ref 0 in
  while now () < t do
    f !n;
    incr n
  done

let busy_float = ref 0.

(* The profiler attributes a busy loop in the benchmark's own code to
   "other", and a loop in lib/stats (whose sort runs in stdlib frames)
   to stats.  Returns the failures. *)
let profiler_selftest () =
  let bucket_test label f expected =
    let p = Profiler.create () in
    Profiler.start p;
    spin_until (now () +. 0.4) f;
    Profiler.stop ();
    let s = Profiler.exclusive_share p expected in
    Printf.eprintf "profiler self-test %s: %d samples, %.3f in %s\n" label
      (Profiler.samples p) s expected;
    if Profiler.samples p >= 50 && s >= 0.8 then []
    else
      [
        Printf.sprintf "profiler: %s loop charged %.2f of %d samples to %s"
          label s (Profiler.samples p) expected;
      ]
  in
  let samples = List.init 2000 (fun i -> float_of_int ((i * 7919) mod 2003)) in
  bucket_test "own"
    (fun i -> busy_float := !busy_float +. sqrt (float_of_int i))
    "other"
  @ bucket_test "stats"
      (fun _ -> ignore (Stats.Summary.of_list samples : Stats.Summary.t))
      "stats"

(* {2 Traced run: the per-layer metrics} *)

let traced_run ~name ~(workload : Workloads.workload) ~run ~seed ~seconds =
  let selftest_errors = profiler_selftest () in
  let profiler = Profiler.create () in
  let gc = Profiler.Gc_pauses.create () in
  let ticks = ref 0 in
  profiler.on_tick <-
    (fun () ->
      incr ticks;
      if !ticks mod 50 = 0 then Profiler.Gc_pauses.poll gc);
  let traced () =
    Spans.enabled := true;
    Profiler.Gc_pauses.resume gc;
    Profiler.start profiler;
    Fun.protect
      ~finally:(fun () ->
        Profiler.stop ();
        Profiler.Gc_pauses.suspend gc;
        Spans.enabled := false)
      (fun () -> run ~traced:true)
  in
  let cal = Calibrate.create () in
  let deadline = now () +. seconds in
  let rec loop plain tr n =
    if (n >= 2 && now () >= deadline) || n >= max_repeats then
      (List.rev plain, List.rev tr)
    else begin
      let p = calibrated cal (fun () -> run ~traced:false) in
      Gc.compact ();
      let t = traced () in
      loop (p :: plain) (t :: tr) (n + 1)
    end
  in
  let plain, tr = loop [] [] 0 in
  let last : Workloads.repeat = List.hd (List.rev tr) in
  let last_plain : Workloads.repeat = List.hd (List.rev plain) in
  let med f l = Stats.Summary.(median (of_list (List.map f l))) in
  let plain_ops = med ops_per_s plain and traced_ops = med ops_per_s tr in
  let call k = Option.value ~default:0. (List.assoc_opt k last.calls) in
  let ops = float_of_int last.ops in
  (* Host ns per op: cost per call times the run's calls, per op.  A
     replay loop runs only when the run made such calls. *)
  let replay ns_per_call calls =
    if calls = 0. || ops = 0. then 0. else ns_per_call () *. calls /. ops
  in
  let replays =
    [
      ("raft.submit_ns", replay (fun () -> Spans.mean_ns "submit") (call "submits"));
      ( "kv.codec_ns",
        replay Replay.encode_ns (call "payloads_encoded")
        +. replay Replay.decode_ns (call "payloads_decoded" +. call "routes") );
      ("kv.apply_ns", replay Replay.apply_ns (call "applies"));
      ( "tuner.observe_ns",
        replay (fun () -> Replay.observe_ns ~rtt_ms:workload.rtt_ms) (call "heartbeats") );
      ("stats.summary_ns", Replay.summary_ns last.op_latencies);
      ( "router.route_ns",
        replay
          (fun () -> Replay.route_ns ~groups:Workloads.multiraft_groups)
          (call "routes") );
    ]
  in
  let crosscheck = workload.crosscheck ~seed:(Int64.of_int seed) in
  let share l = Profiler.exclusive_share profiler l in
  let shares =
    List.map
      (fun l -> (l ^ ".self_share", share l))
      Profiler.layers
  in
  let host =
    [
      ("des.ns_per_event", med (fun (r : Workloads.repeat) -> r.measure_s *. 1e9 /. float_of_int (max 1 r.events)) plain);
      ("harness.create_s", med (fun (r : Workloads.repeat) -> r.create_s) plain);
      ("harness.warmup_s", med (fun (r : Workloads.repeat) -> r.warmup_s) plain);
      ( "gc.top_heap_mb",
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words
        *. float_of_int (Sys.word_size / 8) /. 1048576. );
      ("gc.pause_s", Profiler.Gc_pauses.total_s gc);
      ("gc.pause_max_ms", Profiler.Gc_pauses.max_ms gc);
      ("trace.overhead_frac", 1. -. (traced_ops /. plain_ops));
      ("host.kernel_ms", Calibrate.mean_s cal *. 1e3);
      ("profile.samples", float_of_int (Profiler.samples profiler));
      ("op.samples", float_of_int (Stats.Summary.count last.op_latencies));
    ]
  in
  (* Simulated counts come from the traced repeat (telemetry on); the
     GC words per event from an untraced one, which the profiler does
     not disturb. *)
  let gc_words =
    List.filter
      (fun (k, _) -> String.length k > 3 && String.sub k 0 3 = "gc.")
      last_plain.layer
  in
  let layer =
    List.filter (fun (k, _) -> not (List.mem_assoc k gc_words)) last.layer
    @ gc_words @ replays @ shares @ host
  in
  Printf.eprintf "%s seed %d traced: %d untraced + %d traced repeats, %d profile samples (%d GC pauses, %d events lost)\n"
    name seed (List.length plain) (List.length tr) (Profiler.samples profiler)
    (Profiler.Gc_pauses.pauses gc) (Profiler.Gc_pauses.lost gc);
  Printf.eprintf "%-10s %9s %9s\n" "layer" "exclusive" "inclusive";
  List.iter
    (fun l ->
      Printf.eprintf "%-10s %9.4f %9.4f\n" l (share l)
        (Profiler.inclusive_share profiler l))
    Profiler.layers;
  Spans.report stderr;
  (layer, plain @ tr, selftest_errors @ consistency_errors (plain @ tr) @ crosscheck)

(* {2 The metric catalogue: name -> unit} *)

let per_layer_units =
  [
    ("des.events", "count"); ("des.events_per_op", "events/op");
    ("des.ns_per_event", "ns"); ("des.cancel_frac", "ratio");
    ("des.wheel_absorb_frac", "ratio"); ("des.cascades", "count");
    ("des.heap_high_water", "count"); ("des.wheel_high_water", "count");
    ("des.self_share", "ratio");
    ("net.msgs_per_op", "msgs/op"); ("net.delivered_frac", "ratio");
    ("net.lost", "count"); ("net.dropped_paused", "count");
    ("net.retransmissions", "count"); ("net.egress_depth_max", "count");
    ("net.self_share", "ratio");
    ("raft.submit_calls", "count"); ("raft.submit_ns", "ns/op");
    ("raft.not_leader", "count"); ("raft.elections", "count");
    ("raft.prevote_aborts", "count"); ("raft.split_vote_frac", "ratio");
    ("raft.rounds_per_failover", "rounds"); ("raft.append_batch_mean", "entries");
    ("raft.base_detect_p50_ms", "ms"); ("raft.base_ots_p50_ms", "ms");
    ("raft.ots_p50_ms", "ms"); ("raft.ots_p99_ms", "ms");
    ("raft.self_share", "ratio");
    ("tuner.samples", "count"); ("tuner.et_ms", "ms"); ("tuner.h_ms", "ms");
    ("tuner.rtt_err", "ratio"); ("tuner.loss_est", "ratio");
    ("tuner.observe_ns", "ns/op"); ("tuner.detect_p50_ms", "ms");
    ("tuner.detect_p99_ms", "ms"); ("tuner.self_share", "ratio");
    ("kv.offered", "count"); ("kv.committed", "count"); ("kv.failed", "count");
    ("kv.redirects", "count"); ("kv.backlog_max", "count");
    ("kv.applies_per_commit", "ratio"); ("kv.codec_ns", "ns/op");
    ("kv.apply_ns", "ns/op"); ("kv.sustained_rps", "req/s");
    ("kv.self_share", "ratio");
    ("router.hit_frac", "ratio"); ("router.refreshes", "count");
    ("router.route_ns", "ns/op"); ("mr.create_s", "s");
    ("mr.leaderless_after_warmup", "count"); ("mr.self_share", "ratio");
    ("stats.summary_ns", "ns"); ("stats.self_share", "ratio");
    ("harness.create_s", "s"); ("harness.warmup_s", "s");
    ("harness.self_share", "ratio");
    ("scenarios.self_share", "ratio"); ("telemetry.self_share", "ratio");
    ("check.self_share", "ratio");
    ("gc.minor_words_per_event", "words/event");
    ("gc.major_words_per_event", "words/event");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB"); ("gc.pause_s", "s"); ("gc.pause_max_ms", "ms");
    ("trace.overhead_frac", "ratio"); ("host.kernel_ms", "ms");
    ("profile.samples", "count");
    ("op.samples", "count");
    ("other.self_share", "ratio");
  ]

(* A per-layer metric a workload does not exercise reads 0 (no router
   on a single group, no client on the failover campaign). *)
let per_layer_metrics layer =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0. (List.assoc_opt name layer)))
    per_layer_units

(* {2 Self-test command} *)

let selftest () =
  let failures = ref (List.rev (profiler_selftest ())) in
  let expect ok msg = if not ok then failures := msg :: !failures in
  (* Drained accounting: the lowest ladder level reads as sustained. *)
  let r = Workloads.kv_saturation ~seed:1L ~traced:false () in
  expect (r.errors = []) (String.concat "; " ("kv_saturation checks" :: r.errors));
  (* The failover workload reproduces Scenarios.Fig4.run. *)
  let cross = Workloads.failover_crosscheck ~seed:1L ~quota:200 in
  expect (cross = []) (String.concat "; " cross);
  let a = Workloads.failover ~quota:200 ~seed:3L ~traced:false () in
  let b = Workloads.failover ~quota:200 ~seed:3L ~traced:true () in
  expect (a.fingerprint = b.fingerprint)
    "failover: traced and untraced repeats differ";
  match !failures with
  | [] ->
      prerr_endline "selftest: ok";
      exit 0
  | l ->
      List.iter (fun m -> prerr_endline ("selftest FAILED: " ^ m)) (List.rev l);
      exit 1

(* {2 Command line} *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (failover|kv_saturation|kv_multiraft) \
     --seed N --seconds S --trace 0|1\n\
    \       perfbench selftest";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "selftest" ] -> selftest ()
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let name = get "workload" in
      let seed = int "seed" and seconds = float_of_int (int "seconds") in
      let trace = int "trace" in
      let workload =
        match List.assoc_opt name Workloads.all with
        | Some w -> w
        | None -> usage ()
      in
      let seed64 = Int64.of_int seed in
      let run ~traced = workload.repeat ~seed:seed64 ~traced in
      let setup_only () = workload.setup_only ~seed:seed64 in
      let metrics, repeats, errors =
        if trace = 0 then end_to_end ~name ~run ~setup_only ~seed ~seconds
        else
          let layer, repeats, errors =
            traced_run ~name ~workload ~run ~seed ~seconds
          in
          (per_layer_metrics layer, repeats, errors)
      in
      List.iter (fun e -> prerr_endline ("CHECK FAILED: " ^ e)) errors;
      List.iter
        (fun (n, u, v) -> Printf.eprintf "  %-28s %16.6f %s\n" n v u)
        metrics;
      let attempted, failed = totals repeats in
      print_result ~correct:(errors = []) ~attempted ~failed metrics;
      if errors <> [] then exit 1
  | [] -> usage ()
