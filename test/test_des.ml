(* Unit tests for the discrete-event simulation kernel. *)

module Time = Des.Time
module Engine = Des.Engine
module Timer = Des.Timer
module Mtrace = Des.Mtrace

(* {2 Time} *)

let test_time_conversions () =
  Alcotest.(check int) "ms" 5_000_000 (Time.ms 5);
  Alcotest.(check int) "us" 5_000 (Time.us 5);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1);
  Alcotest.(check int) "of_ms_f rounds" 1_500_000 (Time.of_ms_f 1.5);
  Alcotest.(check (float 1e-9)) "to_ms_f" 1.5 (Time.to_ms_f 1_500_000);
  Alcotest.(check (float 1e-9)) "to_sec_f" 0.25 (Time.to_sec_f 250_000_000)

let test_time_clamp () =
  Alcotest.(check int) "below" 10 (Time.clamp 5 ~lo:10 ~hi:20);
  Alcotest.(check int) "above" 20 (Time.clamp 25 ~lo:10 ~hi:20);
  Alcotest.(check int) "inside" 15 (Time.clamp 15 ~lo:10 ~hi:20)

let test_time_scale () =
  Alcotest.(check int) "halving" (Time.ms 50) (Time.scale (Time.ms 100) 0.5)

(* {2 Engine} *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  ignore (Engine.schedule_at e (Time.ms 30) Engine.thunk (log "c") () 0);
  ignore (Engine.schedule_at e (Time.ms 10) Engine.thunk (log "a") () 0);
  ignore (Engine.schedule_at e (Time.ms 20) Engine.thunk (log "b") () 0);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule_at e (Time.ms 10) Engine.thunk
         (fun () -> order := i :: !order)
         () 0)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore
    (Engine.schedule_at e (Time.ms 42) Engine.thunk
       (fun () -> seen := Engine.now e)
       () 0);
  Engine.run e;
  Alcotest.(check int) "clock at event time" (Time.ms 42) !seen

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h =
    Engine.schedule_at e (Time.ms 5) Engine.thunk (fun () -> fired := true) () 0
  in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_run_until_boundary () =
  let e = Engine.create () in
  let fired = ref [] in
  let log v () = fired := v :: !fired in
  ignore (Engine.schedule_at e (Time.ms 10) Engine.thunk (log 10) () 0);
  ignore (Engine.schedule_at e (Time.ms 20) Engine.thunk (log 20) () 0);
  Engine.run_until e (Time.ms 15);
  Alcotest.(check (list int)) "only events <= limit" [ 10 ] !fired;
  Alcotest.(check int) "clock set to limit" (Time.ms 15) (Engine.now e);
  Engine.run_until e (Time.ms 25);
  Alcotest.(check (list int)) "rest runs later" [ 20; 10 ] !fired

let test_engine_run_until_cancelled_head () =
  (* A cancelled event at the queue head must not cause an event beyond
     the limit to run. *)
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time.ms 5) Engine.thunk (fun () -> ()) () 0 in
  ignore
    (Engine.schedule_at e (Time.ms 50) Engine.thunk
       (fun () -> fired := true)
       () 0);
  Engine.cancel h;
  Engine.run_until e (Time.ms 10);
  Alcotest.(check bool) "beyond-limit event did not run" false !fired

let test_engine_schedule_during_run () =
  let e = Engine.create () in
  let result = ref 0 in
  ignore
    (Engine.schedule_at e (Time.ms 1) Engine.thunk
       (fun () ->
         ignore
           (Engine.schedule_after e (Time.ms 1) Engine.thunk
              (fun () -> result := 42)
              () 0))
       () 0);
  Engine.run e;
  Alcotest.(check int) "nested scheduling runs" 42 !result

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 10) Engine.thunk (fun () -> ()) () 0);
  Engine.run e;
  Alcotest.(check bool) "scheduling in the past raises" true
    (try
       ignore
         (Engine.schedule_at e (Time.ms 5) Engine.thunk (fun () -> ()) () 0);
       false
     with Invalid_argument _ -> true)

(* Every path into the queue takes the same [(at, seq)] order: same-instant
   events fire in scheduling order whether they went through the heap
   ([schedule_at]/[schedule_after]), the timing wheel ([schedule_timer])
   or carry a closure through [thunk]. *)
let test_engine_one_order_across_paths () =
  let e = Engine.create () in
  let order = ref [] in
  let record tag () (_ : int) = order := tag :: !order in
  let at = Time.ms 10 in
  ignore (Engine.schedule_timer e at record "timer1" () 0 : Engine.handle);
  ignore (Engine.schedule_at e at record "heap1" () 0 : Engine.handle);
  ignore
    (Engine.schedule_at e at Engine.thunk
       (fun () -> order := "thunk" :: !order)
       () 0
      : Engine.handle);
  ignore (Engine.schedule_timer e at record "timer2" () 0 : Engine.handle);
  ignore (Engine.schedule_after e at record "heap2" () 0 : Engine.handle);
  Alcotest.(check int) "timers parked in the wheel" 2
    (Engine.stats e).Engine.wheel_occupancy;
  Engine.run e;
  Alcotest.(check (list string)) "scheduling order"
    [ "timer1"; "heap1"; "thunk"; "timer2"; "heap2" ]
    (List.rev !order)

type operand = { label : string }

let test_engine_handler_operands () =
  let e = Engine.create () in
  let got = ref [] in
  let handler (a : operand) (b : float) arg = got := (a, b, arg) :: !got in
  let x = { label = "x" } and y = { label = "y" } in
  ignore (Engine.schedule_after e (Time.ms 1) handler x 2.5 max_int);
  ignore (Engine.schedule_timer e (Time.ms 2) handler y (-0.) (-7));
  Engine.run e;
  match List.rev !got with
  | [ (a1, b1, n1); (a2, b2, n2) ] ->
      Alcotest.(check bool) "heap: first operand is the same value" true
        (a1 == x);
      Alcotest.(check (float 0.)) "heap: second operand" 2.5 b1;
      Alcotest.(check int) "heap: int operand" max_int n1;
      Alcotest.(check bool) "wheel: first operand is the same value" true
        (a2 == y);
      Alcotest.(check bool) "wheel: second operand keeps its sign" true
        (Float.sign_bit b2);
      Alcotest.(check int) "wheel: int operand" (-7) n2
  | l -> Alcotest.failf "expected 2 firings, got %d" (List.length l)

(* Only an absolute deadline can be in the past, and it is refused with
   one message whatever the handler; relative spans clamp to now. *)
let test_engine_past_message () =
  let e = Engine.create () in
  Engine.run_until e (Time.ms 10);
  let message f =
    match f () with
    | (_ : Engine.handle) -> "accepted"
    | exception Invalid_argument m -> m
  in
  let expected = "Engine.schedule_at: 5000000 is in the past (now 10000000)" in
  Alcotest.(check string) "plain handler" expected
    (message (fun () ->
         Engine.schedule_at e (Time.ms 5) (fun () () _ -> ()) () () 0));
  Alcotest.(check string) "thunk" expected
    (message (fun () ->
         Engine.schedule_at e (Time.ms 5) Engine.thunk ignore () 0));
  let fired = ref [] in
  let record tag () _ = fired := (tag, Engine.now e) :: !fired in
  ignore (Engine.schedule_after e (Time.ms (-1)) record "after" () 0);
  ignore (Engine.schedule_timer e (Time.ms (-1)) record "timer" () 0);
  Engine.run e;
  Alcotest.(check (list (pair string int))) "negative spans fire now"
    [ ("after", Time.ms 10); ("timer", Time.ms 10) ]
    (List.rev !fired)

let test_engine_counters () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time.ms i) Engine.thunk (fun () -> ()) () 0)
  done;
  Alcotest.(check int) "pending" 5 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "processed" 5 (Engine.processed_events e);
  Alcotest.(check int) "drained" 0 (Engine.pending_events e)

(* {2 Poll} *)

(* A cond that records the clock at every call and holds once [fired]
   is set — by the test, or by an event scheduled with [at]. *)
let poll_probe e =
  let calls = ref [] and fired = ref false in
  let cond () =
    calls := Engine.now e :: !calls;
    !fired
  in
  let at time f =
    ignore (Engine.schedule_at e time Engine.thunk f () 0 : Engine.handle)
  in
  (calls, fired, at, cond)

let test_poll_true_at_entry () =
  let e = Engine.create () in
  let calls, fired, at, cond = poll_probe e in
  at (Time.us 500) ignore;
  fired := true;
  Alcotest.(check bool) "holds" true (Engine.poll e ~timeout:(Time.sec 1) cond);
  Alcotest.(check (list int)) "one call, at entry" [ 0 ] !calls;
  Alcotest.(check int) "no slice ran" 0 (Engine.processed_events e)

let test_poll_clamps_at_deadline () =
  let e = Engine.create () in
  let _, _, _, cond = poll_probe e in
  Alcotest.(check bool) "times out" false
    (Engine.poll e ~timeout:(Time.ms 10) ~every:(Time.ms 3) cond);
  Alcotest.(check int) "stops exactly at the deadline" (Time.ms 10)
    (Engine.now e)

(* Conditions over simulation state only change when an event runs, so
   the poll re-checks after busy slices alone: an event at 3.5 ms makes
   the slice ending at 4 ms busy, every other slice is idle. *)
let test_poll_skips_idle_slices () =
  let e = Engine.create () in
  let calls, _, at, cond = poll_probe e in
  at (Time.us 3500) ignore;
  Alcotest.(check bool) "times out" false
    (Engine.poll e ~timeout:(Time.ms 10) cond);
  Alcotest.(check (list int)) "entry, then after the busy slice"
    [ 0; Time.ms 4 ] (List.rev !calls)

let test_poll_coarse_slices () =
  let e = Engine.create () in
  let calls, fired, at, cond = poll_probe e in
  at (Time.ms 50) ignore;
  at (Time.ms 150) (fun () -> fired := true);
  Alcotest.(check bool) "holds" true
    (Engine.poll e ~timeout:(Time.sec 1) ~every:(Time.ms 100) cond);
  Alcotest.(check (list int)) "checked on 100 ms boundaries"
    [ 0; Time.ms 100; Time.ms 200 ] (List.rev !calls);
  Alcotest.(check int) "stops at the boundary after the event" (Time.ms 200)
    (Engine.now e)

(* {2 Timer} *)

let test_timer_fires_once () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e (fun () -> incr count) in
  Timer.arm t (Time.ms 10);
  Engine.run e;
  Alcotest.(check int) "fires once" 1 !count

let test_timer_rearm_cancels_previous () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let t = ref None in
  let timer =
    Timer.create e (fun () -> fired_at := Engine.now e :: !fired_at)
  in
  t := Some timer;
  Timer.arm timer (Time.ms 10);
  ignore
    (Engine.schedule_at e (Time.ms 5) Engine.thunk
       (fun () -> Timer.arm timer (Time.ms 10))
       () 0);
  Engine.run e;
  Alcotest.(check (list int)) "fires only at re-armed deadline" [ Time.ms 15 ]
    !fired_at

let test_timer_disarm () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e (fun () -> incr count) in
  Timer.arm t (Time.ms 10);
  Timer.disarm t;
  Engine.run e;
  Alcotest.(check int) "disarmed timer is silent" 0 !count;
  Alcotest.(check bool) "not armed" false (Timer.is_armed t)

let test_timer_remaining () =
  let e = Engine.create () in
  let t = Timer.create e (fun () -> ()) in
  Timer.arm t (Time.ms 100);
  ignore
    (Engine.schedule_at e (Time.ms 40) Engine.thunk
       (fun () ->
         match Timer.remaining t with
         | Some r -> Alcotest.(check int) "remaining" (Time.ms 60) r
         | None -> Alcotest.fail "expected armed timer")
       () 0);
  Engine.run_until e (Time.ms 50);
  Timer.disarm t

let test_timer_armed_span_persists () =
  let e = Engine.create () in
  let t = Timer.create e (fun () -> ()) in
  Timer.arm t (Time.ms 123);
  Engine.run e;
  Alcotest.(check (option int)) "span recorded after firing"
    (Some (Time.ms 123)) (Timer.armed_span t)

let test_timer_rearm_from_callback () =
  let e = Engine.create () in
  let count = ref 0 in
  let tref = ref None in
  let timer =
    Timer.create e (fun () ->
        incr count;
        if !count < 3 then Timer.arm (Option.get !tref) (Time.ms 10))
  in
  tref := Some timer;
  Timer.arm timer (Time.ms 10);
  Engine.run e;
  Alcotest.(check int) "periodic re-arm" 3 !count

(* {2 Mtrace} *)

let stamps (en : _ Mtrace.entry) = (en.at, (en.cause, en.parent), en.ev)
let timed_entry (en : _ Mtrace.entry) = (en.at, en.ev)
let timed trace = List.map timed_entry (Mtrace.events trace)

(* Time and both causal stamps survive every read path — retained
   entries, [iter], [find_first], [tail], live observers — and [clear]
   drops them with the entries. *)
let test_mtrace_records_time () =
  let e = Engine.create () in
  let trace : string Mtrace.t = Mtrace.create e in
  let seen = ref [] in
  Mtrace.subscribe trace (fun en -> seen := stamps en :: !seen);
  ignore
    (Engine.schedule_at e (Time.ms 5) Engine.thunk
       (fun () -> Mtrace.emit trace ~cause:7 ~parent:3 "a")
       () 0);
  ignore
    (Engine.schedule_at e (Time.ms 9) Engine.thunk
       (fun () -> Mtrace.emit trace ~cause:8 ~parent:0 "b")
       () 0);
  Engine.run e;
  let stamped = Alcotest.(list (triple int (pair int int) string)) in
  let expected = [ (Time.ms 5, (7, 3), "a"); (Time.ms 9, (8, 0), "b") ] in
  Alcotest.check stamped "events with timestamps and stamps" expected
    (List.map stamps (Mtrace.events trace));
  let iterated = ref [] in
  Mtrace.iter trace ~f:(fun en -> iterated := stamps en :: !iterated);
  Alcotest.check stamped "iter keeps the stamps" expected (List.rev !iterated);
  Alcotest.check stamped "observers receive the stamps" expected
    (List.rev !seen);
  Alcotest.(check (option (triple int (pair int int) string)))
    "find_first keeps the stamps"
    (Some (Time.ms 9, (8, 0), "b"))
    (Option.map stamps
       (Mtrace.find_first trace ~after:(Time.ms 5) ~f:(fun _ -> true)));
  Alcotest.check stamped "tail is the newest, oldest first"
    [ (Time.ms 9, (8, 0), "b") ]
    (List.map stamps (Mtrace.tail trace 1));
  Alcotest.check stamped "tail beyond the retained window" expected
    (List.map stamps (Mtrace.tail trace 5));
  Mtrace.clear trace;
  Alcotest.check stamped "clear drops entries and stamps" []
    (List.map stamps (Mtrace.events trace))

let test_mtrace_find_first () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  List.iter
    (fun (t, v) ->
      ignore
        (Engine.schedule_at e t Engine.thunk
           (fun () -> Mtrace.emit trace ~cause:0 ~parent:0 v)
           () 0))
    [ (Time.ms 1, 10); (Time.ms 2, 20); (Time.ms 3, 20) ];
  Engine.run e;
  Alcotest.(check (option (pair int int)))
    "first match after cutoff"
    (Some (Time.ms 2, 20))
    (Option.map timed_entry
       (Mtrace.find_first trace ~after:(Time.ms 1) ~f:(fun a -> a = 20)))

let test_mtrace_subscribe () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  let seen = ref [] in
  Mtrace.subscribe trace (fun en -> seen := en.Mtrace.ev :: !seen);
  let emit v () = Mtrace.emit trace ~cause:0 ~parent:0 v in
  ignore (Engine.schedule_at e (Time.ms 1) Engine.thunk (emit 1) () 0);
  ignore (Engine.schedule_at e (Time.ms 2) Engine.thunk (emit 2) () 0);
  Engine.run e;
  Alcotest.(check (list int)) "observer sees all" [ 1; 2 ] (List.rev !seen)

let emit_seq trace e values =
  List.iteri
    (fun i v ->
      ignore
        (Engine.schedule_at e (Time.ms (i + 1)) Engine.thunk
           (fun () -> Mtrace.emit trace ~cause:0 ~parent:0 v)
           () 0))
    values;
  Engine.run e

let test_mtrace_capacity_trims () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create ~capacity:2 e in
  emit_seq trace e [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length capped" 2 (Mtrace.length trace);
  Alcotest.(check int) "dropped counts evictions" 3 (Mtrace.dropped trace);
  Alcotest.(check (list (pair int int)))
    "newest survive, oldest-first order"
    [ (Time.ms 4, 4); (Time.ms 5, 5) ]
    (timed trace);
  (* find_first scans only the retained window. *)
  Alcotest.(check (option (pair int int)))
    "find_first sees retained only" None
    (Option.map timed_entry
       (Mtrace.find_first trace ~after:Time.zero ~f:(fun v -> v = 1)))

let test_mtrace_unbounded_keeps_all () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  emit_seq trace e [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "nothing dropped" 0 (Mtrace.dropped trace);
  Alcotest.(check int) "all retained" 5 (Mtrace.length trace)

let test_mtrace_capacity_observers_see_all () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create ~capacity:1 e in
  let seen = ref [] in
  Mtrace.subscribe trace (fun en -> seen := en.Mtrace.ev :: !seen);
  emit_seq trace e [ 1; 2; 3 ];
  Alcotest.(check (list int))
    "bound trims storage, not observers" [ 1; 2; 3 ] (List.rev !seen)

let test_mtrace_capacity_invalid () =
  let e = Engine.create () in
  List.iter
    (fun capacity ->
      match Mtrace.create ~capacity e with
      | (_ : int Mtrace.t) -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* [Monitor.leaderless_intervals]'s documented precondition: a cleared
   trace yields no events to replay — replay-based monitors only see
   what happened since the last [clear]. *)
let test_mtrace_clear_drops_history () =
  let e = Engine.create () in
  let trace : int Mtrace.t = Mtrace.create e in
  emit_seq trace e [ 1; 2; 3 ];
  Mtrace.clear trace;
  Alcotest.(check int) "empty after clear" 0 (Mtrace.length trace);
  Alcotest.(check (list (pair int int))) "no replayable history" []
    (timed trace)

let tests =
  [
    Alcotest.test_case "time: conversions" `Quick test_time_conversions;
    Alcotest.test_case "time: clamp" `Quick test_time_clamp;
    Alcotest.test_case "time: scale" `Quick test_time_scale;
    Alcotest.test_case "engine: time ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine: FIFO on ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine: clock advances" `Quick
      test_engine_clock_advances;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: run_until boundary" `Quick
      test_engine_run_until_boundary;
    Alcotest.test_case "engine: run_until with cancelled head" `Quick
      test_engine_run_until_cancelled_head;
    Alcotest.test_case "engine: nested scheduling" `Quick
      test_engine_schedule_during_run;
    Alcotest.test_case "engine: past rejected" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine: one order across heap, wheel and thunk" `Quick
      test_engine_one_order_across_paths;
    Alcotest.test_case "engine: handler receives its operands" `Quick
      test_engine_handler_operands;
    Alcotest.test_case "engine: past deadline has one message" `Quick
      test_engine_past_message;
    Alcotest.test_case "engine: counters" `Quick test_engine_counters;
    Alcotest.test_case "poll: true at entry runs no slice" `Quick
      test_poll_true_at_entry;
    Alcotest.test_case "poll: last slice clamped at the deadline" `Quick
      test_poll_clamps_at_deadline;
    Alcotest.test_case "poll: idle slices skip the check" `Quick
      test_poll_skips_idle_slices;
    Alcotest.test_case "poll: 100 ms slices" `Quick test_poll_coarse_slices;
    Alcotest.test_case "timer: fires once" `Quick test_timer_fires_once;
    Alcotest.test_case "timer: re-arm cancels previous" `Quick
      test_timer_rearm_cancels_previous;
    Alcotest.test_case "timer: disarm" `Quick test_timer_disarm;
    Alcotest.test_case "timer: remaining" `Quick test_timer_remaining;
    Alcotest.test_case "timer: armed_span persists" `Quick
      test_timer_armed_span_persists;
    Alcotest.test_case "timer: re-arm from callback" `Quick
      test_timer_rearm_from_callback;
    Alcotest.test_case "mtrace: records time" `Quick test_mtrace_records_time;
    Alcotest.test_case "mtrace: find_first" `Quick test_mtrace_find_first;
    Alcotest.test_case "mtrace: subscribe" `Quick test_mtrace_subscribe;
    Alcotest.test_case "mtrace: capacity trims" `Quick
      test_mtrace_capacity_trims;
    Alcotest.test_case "mtrace: unbounded keeps all" `Quick
      test_mtrace_unbounded_keeps_all;
    Alcotest.test_case "mtrace: bounded observers see all" `Quick
      test_mtrace_capacity_observers_see_all;
    Alcotest.test_case "mtrace: invalid capacity" `Quick
      test_mtrace_capacity_invalid;
    Alcotest.test_case "mtrace: clear drops history" `Quick
      test_mtrace_clear_drops_history;
  ]
