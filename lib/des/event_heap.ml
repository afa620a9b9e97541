type stats = {
  mutable dead : int;
  mutable cancelled : int;
  mutable compactions : int;
  mutable high_water : int;
  mutable cancelled_in_place : int;
  mutable cascades : int;
  mutable wheel_occupancy : int;
  mutable wheel_high_water : int;
}

(* Flattened, pooled event record.  The payload is the handler itself
   plus two uniform operand words and one immediate word; firing is
   [fn a b arg].  All fields are mutable so fired and cancelled events
   can be recycled through a per-heap free list instead of being
   re-allocated: on the steady-state replication workload every event
   alloc after warm-up is a free-list pop, so scheduling allocates zero
   minor words. *)
type event = {
  mutable at : Time.t;
  mutable seq : int;
  mutable fn : Obj.t -> Obj.t -> int -> unit;
  mutable a : Obj.t;
  mutable b : Obj.t;
  mutable arg : int;
  mutable cancelled : bool;
  mutable queued : bool;
  mutable w_next : event;
  stats : stats;
}

type t = {
  mutable data : event array;
  mutable len : int;
  stats : stats;
  mutable free : event;  (* free-list head, chained via [w_next] *)
}

let fresh_stats () =
  {
    dead = 0;
    cancelled = 0;
    compactions = 0;
    high_water = 0;
    cancelled_in_place = 0;
    cascades = 0;
    wheel_occupancy = 0;
    wheel_high_water = 0;
  }

(* A permanently-cancelled placeholder: lets handle holders (timers) use
   a plain [event] field instead of an [event option], and terminates
   both wheel-slot chains and the free list.  Cancelling it is a no-op
   (already cancelled), and no code path ever writes it, so it is safe
   to share — even across domains. *)
let never =
  let rec ev =
    {
      at = 0;
      seq = -1;
      fn = (fun _ _ _ -> ());
      a = Obj.repr ();
      b = Obj.repr ();
      arg = 0;
      cancelled = true;
      queued = false;
      w_next = ev;
      stats = fresh_stats ();
    }
  in
  ev

let create () = { data = [||]; len = 0; stats = fresh_stats (); free = never }
let live_length t = t.len - t.stats.dead
let stats t = t.stats
let compact_min_dead = 64

(* Pop a recycled event, or allocate a fresh one if the pool is dry,
   and fill in its payload.  The handler and operands are stored as
   uniform words: [Obj.obj] on the handler is a no-op cast under the
   uniform value representation, and [fn a b arg] at fire time applies
   it to exactly the values it was given here.  A released event pins
   its last payload until reused, which is bounded by the pool size. *)
let[@inline] alloc t ~at ~seq (f : 'a -> 'b -> int -> unit) (a : 'a) (b : 'b)
    arg =
  let fn : Obj.t -> Obj.t -> int -> unit = Obj.obj (Obj.repr f) in
  let ev = t.free in
  if ev == never then
    let rec ev =
      {
        at;
        seq;
        fn;
        a = Obj.repr a;
        b = Obj.repr b;
        arg;
        cancelled = false;
        queued = false;
        w_next = ev;
        stats = t.stats;
      }
    in
    ev
  else begin
    t.free <- ev.w_next;
    ev.w_next <- ev;
    ev.at <- at;
    ev.seq <- seq;
    ev.fn <- fn;
    ev.a <- Obj.repr a;
    ev.b <- Obj.repr b;
    ev.arg <- arg;
    ev.cancelled <- false;
    ev
  end

(* Return a fired or discarded event to the pool.  The caller must have
   removed it from the heap and any wheel slot first; the DES gives
   exact reclaim points (execution, tombstone discard, slot visit), so
   no generation counter is needed — only {!Timer} retains handles, and
   it forgets them before the event can be recycled. *)
let release t ev =
  if ev != never then begin
    ev.cancelled <- true;
    ev.queued <- false;
    ev.w_next <- t.free;
    t.free <- ev
  end

(* The ordering [compare_events] implements, with the comparison inlined
   so sift loops never make an indirect call.  [at] and [seq] are
   immediate ints. *)
let[@inline] lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t x =
  let cap = Array.length t.data in
  if cap = 0 then t.data <- Array.make 16 x
  else begin
    let data = Array.make (2 * cap) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && lt t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.len && lt t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  if t.len > t.stats.high_water then t.stats.high_water <- t.len;
  sift_up t (t.len - 1)

(* Drop every cancelled entry (recycling it) and re-heapify.  O(len),
   amortized against the >= len/2 pushes it took to accumulate that many
   dead entries. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let ev = t.data.(i) in
    if ev.cancelled then release t ev
    else begin
      t.data.(!j) <- ev;
      incr j
    end
  done;
  for i = !j to t.len - 1 do
    t.data.(i) <- never
  done;
  t.len <- !j;
  t.stats.dead <- 0;
  t.stats.compactions <- t.stats.compactions + 1;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

let push_event t ev =
  if t.stats.dead > compact_min_dead && 2 * t.stats.dead > t.len then compact t;
  ev.queued <- true;
  push t ev

let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    ev.stats.cancelled <- ev.stats.cancelled + 1;
    if ev.queued then ev.stats.dead <- ev.stats.dead + 1
    else if ev.w_next != ev then begin
      (* Parked in a timing-wheel slot: it never reaches the heap, so it
         costs no sift or compaction work — the wheel drops it when its
         slot is next visited. *)
      ev.stats.cancelled_in_place <- ev.stats.cancelled_in_place + 1;
      ev.stats.wheel_occupancy <- ev.stats.wheel_occupancy - 1
    end
  end

let is_pending ev = not ev.cancelled

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    top.queued <- false;
    Some top
  end

let rec pop_live t =
  match pop t with
  | None -> None
  | Some ev when ev.cancelled ->
      t.stats.dead <- t.stats.dead - 1;
      release t ev;
      pop_live t
  | some -> some

(* Allocation-free peek for the engine's hot loop: [never] means empty.
   Discards (and recycles) cancelled entries from the top. *)
let rec top_live t =
  if t.len = 0 then never
  else begin
    let top = t.data.(0) in
    if top.cancelled then begin
      ignore (pop t : event option);
      t.stats.dead <- t.stats.dead - 1;
      release t top;
      top_live t
    end
    else top
  end

(* Remove the top event; caller has just verified via [top_live] that it
   is live. *)
let drop_top t =
  let top = t.data.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    sift_down t 0
  end;
  top.queued <- false
