(** Hierarchical timing wheel for near-deadline events.

    A front-buffer over {!Event_heap}: events whose deadline falls
    within the wheel's horizon park in O(1) tick-granularity slots and
    are pushed into the heap — with their original [(at, seq)] — just
    before they come due, so the heap remains the single arbiter of
    firing order and determinism is untouched.  Cancelling a
    wheel-resident event ({!Event_heap.cancel}) drops it without any
    heap traffic, which is the payoff for timer-churn workloads.

    3 levels x 256 slots at 2^20 ns (~1.05 ms) per tick: level 0 spans
    ~268 ms, level 1 ~68.7 s, level 2 ~4.9 h.  Deeper deadlines — and
    deadlines at or behind the wheel's cursor — are refused by
    {!insert} and belong in the heap. *)

type t

val create : Event_heap.t -> t
(** A wheel overflowing into (and sharing its stats record with) the
    given heap. *)

val insert : t -> Event_heap.event -> bool
(** Park an event made by {!Event_heap.alloc}.  [false] means the
    deadline is outside the wheel's range (behind the cursor or beyond
    level 2) and the caller must {!Event_heap.push_event} it instead. *)

val next_due_ns : t -> int
(** Lower bound on the earliest instant any wheel event could be due
    (its slot's tick start), or [max_int] when empty.  The engine may
    pop the heap directly only while the heap top is strictly below
    this bound. *)

val flush_next : t -> unit
(** Advance to the earliest occupied slot and process it: cascade it to
    a finer level, or (at level 0) push its live events into the heap
    and drop its cancelled ones.  Requires [linked t > 0].  Repeated
    calls make progress: every event eventually reaches the heap or is
    dropped. *)

val linked : t -> int
(** Events currently chained in slots, including cancelled ones. *)

val cursor_tick : t -> int
(** The wheel's current position, in ticks (for tests). *)

val tick_bits : int
(** log2 of the tick size in ns (for tests). *)
