(** Discrete-event simulation engine.

    A virtual clock plus a priority queue of scheduled callbacks.  Events
    scheduled at the same instant fire in scheduling order (a strictly
    increasing sequence number breaks ties), so runs are deterministic.
    The engine owns the root PRNG stream from which all components derive
    named substreams.

    Every event has one shape: a handler plus two operand values and an
    immediate int, fired as [handler a b arg].  Pass a top-level handler
    and values that already exist, and after the event pool warms up
    scheduling allocates {e zero} minor words — this is what the
    delivery and timer hot paths do.  Cold one-off work passes a closure
    through {!thunk}.  The only routing choice is whether the deadline is
    usually cancelled before it comes due: {!schedule_timer} parks it in
    the timing wheel, {!schedule_at}/{!schedule_after} push it on the
    heap.  All three return a cancellation handle. *)

type t

type handle
(** A cancellation handle for a scheduled event.  Handles are pooled:
    after the event fires or its cancellation is reclaimed, the handle
    may be recycled for an unrelated event.  Holders must forget a
    handle (overwrite it with {!never}) once they learn it fired, and
    must not retain handles they have cancelled — {!Timer} is the
    reference implementation of this discipline. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time zero.  [seed] initializes the root PRNG. *)

val now : t -> Time.t
val rng : t -> Stats.Rng.t
(** Root PRNG stream; split it rather than drawing from it directly. *)

val schedule_at :
  t -> Time.t -> ('a -> 'b -> int -> unit) -> 'a -> 'b -> int -> handle
(** [schedule_at t at f a b arg] runs [f a b arg] at the absolute instant
    [at].  Scheduling in the past raises [Invalid_argument]. *)

val schedule_after :
  t -> Time.span -> ('a -> 'b -> int -> unit) -> 'a -> 'b -> int -> handle
(** Schedule after a relative delay (clamped to be non-negative). *)

val schedule_timer :
  t -> Time.span -> ('a -> 'b -> int -> unit) -> 'a -> 'b -> int -> handle
(** Like {!schedule_after}, but for deadlines that are likely to be
    cancelled before coming due (timer re-arm churn): the event parks in
    the timing wheel, where cancellation drops it in place — no heap
    push, sift, or tombstone.  Firing order and semantics are identical
    to {!schedule_after}; one-shot work that nearly always fires should
    keep using the heap entry points, which skip the wheel's flush
    bookkeeping. *)

val thunk : (unit -> unit) -> unit -> int -> unit
(** [thunk f () _ = f ()]: the handler for closure-carrying events, as in
    [schedule_after t span thunk f () 0].  The caller allocates [f], so
    keep this to cold paths. *)

val cancel : handle -> unit
(** Cancel a scheduled event; cancelling a fired or already-cancelled
    event is a no-op.  Events still parked in the timing wheel are
    dropped in place without ever touching the heap. *)

val is_pending : handle -> bool

val never : handle
(** A permanently-cancelled handle: a null object for handle-typed
    fields, so holders (e.g. {!Timer}) need no [handle option].
    [cancel] is a no-op on it and [is_pending] is [false]. *)

val run : t -> unit
(** Run until the event queue is empty. *)

val run_until : t -> Time.t -> unit
(** Process all events with timestamp [<= limit], then set the clock to
    [limit].  Events scheduled beyond [limit] remain queued. *)

val run_for : t -> Time.span -> unit
(** [run_until] the current time plus a span. *)

val step : t -> bool
(** Process the single next event; [false] if the queue was empty. *)

val set_post_hook : t -> (unit -> unit) option -> unit
(** Install (or clear, with [None]) a callback invoked after every
    processed event.  At most one hook is installed at a time; the
    online invariant checker uses it to inspect all servers' states
    between events.  An exception raised by the hook propagates out of
    [run] / [run_until] / [step]. *)

val pending_events : t -> int
(** Number of queued non-cancelled events. *)

val processed_events : t -> int
(** Total events executed since creation. *)

type stats = {
  processed : int;  (** events executed ({!processed_events}) *)
  pending : int;  (** queued non-cancelled events ({!pending_events}) *)
  cancelled : int;  (** lifetime [cancel] marks on scheduled events *)
  compactions : int;  (** lazy-cancel heap sweeps performed *)
  heap_high_water : int;  (** deepest the event heap has ever been *)
  cancelled_in_place : int;
      (** cancels absorbed by the timing wheel: the event was dropped
          from its slot without a heap push, sift, or tombstone *)
  cascades : int;  (** wheel slot redistributions between levels *)
  wheel_occupancy : int;  (** live events currently parked in the wheel *)
  wheel_high_water : int;  (** peak live wheel occupancy *)
}
(** Engine self-instrumentation.  [cancelled] vs [processed] shows how
    much timer churn (heartbeat re-arming, election resets) the workload
    generates relative to events that actually fire;
    [cancelled_in_place] is the share of that churn the timing wheel
    absorbed for free, while [compactions] and [heap_high_water]
    characterize the residual load on the lazy-cancellation heap.
    Maintained unconditionally — each is a plain field mutation on a
    path that already mutates the structure. *)

val stats : t -> stats
(** Snapshot of the counters at this instant. *)

val global_processed : unit -> int
(** Events executed by every engine in the process so far, across all
    domains.  Updated in batches at the end of [run] / [run_until], so
    read it between runs, not mid-run.  Used by the benchmark harness to
    report events-per-figure. *)
