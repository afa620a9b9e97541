(* One top-level fire handler, not one closure per timer (let alone per
   arming): the heartbeat/election workload re-arms timers on every
   message, and an arm passes [fire] and the timer itself as the
   event's handler and operand — a pooled-event fill, zero minor words.
   No generation counter: [cancel] marks the underlying event, and the
   engine guarantees a cancelled event never fires, which is the whole
   stale-fire guard.  Pool safety: [fire] clears [pending] before
   running the callback, and [disarm]/[arm] clear-or-replace it, so this
   module never holds a handle whose event could have been recycled. *)

type t = {
  engine : Engine.t;
  callback : unit -> unit;
  mutable pending : Engine.handle;  (* Engine.never when disarmed/fired *)
  mutable deadline : Time.t;  (* meaningful while armed *)
  mutable last_span : Time.span;  (* meaningful once ever_armed *)
  mutable ever_armed : bool;
}

let fire (t : t) () (_ : int) =
  t.pending <- Engine.never;
  t.callback ()

let create engine callback =
  {
    engine;
    callback;
    pending = Engine.never;
    deadline = Time.zero;
    last_span = 0;
    ever_armed = false;
  }

let disarm t =
  Engine.cancel t.pending;
  t.pending <- Engine.never

let arm t span =
  Engine.cancel t.pending;
  t.ever_armed <- true;
  t.last_span <- span;
  t.deadline <- Time.add (Engine.now t.engine) span;
  t.pending <- Engine.schedule_timer t.engine span fire t () 0

let is_armed t = Engine.is_pending t.pending
let deadline t = if is_armed t then Some t.deadline else None

let remaining t =
  if is_armed t then Some (Time.diff t.deadline (Engine.now t.engine))
  else None

let armed_span t = if t.ever_armed then Some t.last_span else None
