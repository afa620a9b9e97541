type handle = Event_heap.event

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable processed : int;
  mutable synced : int;  (* portion of [processed] already in [grand_total] *)
  mutable post_hook : (unit -> unit) option;
  queue : Event_heap.t;
  wheel : Wheel.t;
  rng : Stats.Rng.t;
}

(* Events processed by every engine in the process, across domains.
   Synced in batches at the end of [run]/[run_until] so the hot loop
   never touches the atomic. *)
let grand_total = Atomic.make 0

let sync t =
  let delta = t.processed - t.synced in
  if delta > 0 then begin
    ignore (Atomic.fetch_and_add grand_total delta : int);
    t.synced <- t.processed
  end

let global_processed () = Atomic.get grand_total

let create ?seed () =
  let queue = Event_heap.create () in
  {
    clock = Time.zero;
    seq = 0;
    processed = 0;
    synced = 0;
    post_hook = None;
    queue;
    wheel = Wheel.create queue;
    rng = Stats.Rng.create ?seed ();
  }

let set_post_hook t hook = t.post_hook <- hook
let now t = t.clock
let rng t = t.rng
let never = Event_heap.never

let thunk f () (_ : int) = f ()

let[@inline] alloc t at f a b arg =
  let ev = Event_heap.alloc t.queue ~at ~seq:t.seq f a b arg in
  t.seq <- t.seq + 1;
  ev

let schedule_at t at f a b arg =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now %d)" at
         t.clock);
  let ev = alloc t at f a b arg in
  Event_heap.push_event t.queue ev;
  ev

let schedule_after t span f a b arg =
  schedule_at t (Time.add t.clock (Time.max_span 0 span)) f a b arg

(* Timer deadlines are overwhelmingly cancelled and re-armed before they
   come due (election resets, heartbeat re-arms), so they park in the
   timing wheel where cancellation is a free in-place drop.  One-shot
   work — message deliveries, CPU completions — nearly always fires and
   would pay the wheel's flush bookkeeping for nothing, so
   [schedule_at]/[schedule_after] keep it on the heap. *)
let schedule_timer t span f a b arg =
  let ev = alloc t (Time.add t.clock (Time.max_span 0 span)) f a b arg in
  if not (Wheel.insert t.wheel ev) then Event_heap.push_event t.queue ev;
  ev

let cancel = Event_heap.cancel
let is_pending = Event_heap.is_pending

(* Merged drain: the heap may be popped directly only while its top is
   strictly before every instant the wheel could still owe us; otherwise
   flush wheel slots (preserving each event's original (at, seq)) until
   the ordering is decided by the heap alone.  [next_due_ns] is a lower
   bound, so the comparison errs toward flushing — never toward firing
   a heap event ahead of an earlier wheel event.

   Returns the next live event without removing it ([Event_heap.never]
   when none): allocation-free, and after it returns the event is the
   heap top, so [exec] can [drop_top] it. *)
let rec next_live t =
  let top = Event_heap.top_live t.queue in
  let lb = Wheel.next_due_ns t.wheel in
  if lb = max_int || (top != Event_heap.never && top.Event_heap.at < lb) then
    top
  else begin
    Wheel.flush_next t.wheel;
    next_live t
  end

(* Read the payload into locals, then recycle the event {e before}
   dispatching: the handler may schedule new events, and letting it
   reuse this one keeps the pool at its high-water mark.  Safe because
   handles are forgotten before their event can recycle (see
   [Event_heap.release]). *)
let[@hot] exec t ev =
  Event_heap.drop_top t.queue;
  t.clock <- ev.Event_heap.at;
  t.processed <- t.processed + 1;
  let fn = ev.Event_heap.fn
  and a = ev.Event_heap.a
  and b = ev.Event_heap.b
  and arg = ev.Event_heap.arg in
  Event_heap.release t.queue ev;
  fn a b arg;
  match t.post_hook with None -> () | Some f -> f ()

let step t =
  let ev = next_live t in
  if ev == Event_heap.never then false
  else begin
    exec t ev;
    true
  end

let run t =
  while step t do () done;
  sync t

let run_until t limit =
  let continue = ref true in
  while !continue do
    (* [next_live] discards cancelled heads and surfaces any due wheel
       events, so a cancelled head cannot push the clock beyond
       [limit]. *)
    let ev = next_live t in
    if ev == Event_heap.never || ev.Event_heap.at > limit then
      continue := false
    else exec t ev
  done;
  if limit > t.clock then t.clock <- limit;
  sync t

let run_for t span = run_until t (Time.add t.clock span)

(* State that [cond] reads only changes when an event runs, so a slice
   that processed nothing skips the re-check; the slice cadence, and so
   where the clock stops, does not depend on it. *)
let poll t ~timeout ?(every = Time.ms 1) cond =
  if every <= 0 then invalid_arg "Engine.poll: every must be positive";
  let deadline = Time.add t.clock timeout in
  let rec slice () =
    if t.clock >= deadline then false
    else begin
      let seen = t.processed in
      run_until t (Stdlib.min deadline (Time.add t.clock every));
      (t.processed <> seen && cond ()) || slice ()
    end
  in
  cond () || slice ()

let pending_events t =
  Event_heap.live_length t.queue
  + (Event_heap.stats t.queue).Event_heap.wheel_occupancy

let processed_events t = t.processed

type stats = {
  processed : int;
  pending : int;
  cancelled : int;
  compactions : int;
  heap_high_water : int;
  cancelled_in_place : int;
  cascades : int;
  wheel_occupancy : int;
  wheel_high_water : int;
}

let stats t =
  let hs = Event_heap.stats t.queue in
  {
    processed = t.processed;
    pending = pending_events t;
    cancelled = hs.Event_heap.cancelled;
    compactions = hs.Event_heap.compactions;
    heap_high_water = hs.Event_heap.high_water;
    cancelled_in_place = hs.Event_heap.cancelled_in_place;
    cascades = hs.Event_heap.cascades;
    wheel_occupancy = hs.Event_heap.wheel_occupancy;
    wheel_high_water = hs.Event_heap.wheel_high_water;
  }
