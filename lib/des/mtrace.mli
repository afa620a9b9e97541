(** In-simulation trace recorder.

    Components emit typed events against the virtual clock; monitors
    consume the trace afterwards to measure detection time, out-of-service
    intervals, election rounds, etc.  This replaces the paper's practice of
    parsing etcd log files: the shared virtual clock makes the timestamps
    exact.

    {b Retention contract.}  By default a trace is unbounded, and replay
    monitors rely on that: [Harness.Monitor.leaderless_intervals] replays
    every retained event, so its results are only exact if the trace was
    neither {!clear}ed nor capacity-trimmed during the window being
    measured (the failover harness honours this by measuring each failure
    before clearing).  Pass [?capacity] only for long free-running
    simulations where live {!subscribe} observers carry the analysis and
    the retained list is just a debugging tail. *)

type 'a entry = {
  at : Time.t;  (** simulation time of the emit *)
  cause : int;
      (** causal stamp of the emitter's current context ([0] = none); an
          opaque int here, packed and rendered by [Telemetry.Cause] *)
  parent : int;  (** what triggered [cause] ([0] = none or unknown) *)
  ev : 'a;
}
(** One retained event with its causal stamps.  Emitters without causal
    tracking stamp [0] for both. *)

type 'a t

val create : ?capacity:int -> Engine.t -> 'a t
(** [capacity] bounds the number of retained events: once exceeded, the
    oldest events are evicted (count them with {!dropped}).  Eviction is
    amortized O(1) per emit.  Omitted means unbounded.  Raises
    [Invalid_argument] if [capacity <= 0].  Observers are unaffected by
    the bound — they see every emit. *)

val emit : 'a t -> cause:int -> parent:int -> 'a -> unit
(** Record an event at the current simulation time with its causal
    stamps, then hand the entry to every observer. *)

val length : 'a t -> int
(** Events currently retained (at most the capacity). *)

val dropped : 'a t -> int
(** Events evicted by the capacity bound since creation or the last
    {!clear}.  Always [0] for an unbounded trace. *)

val events : 'a t -> 'a entry list
(** Retained entries, oldest first. *)

val tail : 'a t -> int -> 'a entry list
(** The newest [n] retained entries (fewer if fewer are retained),
    oldest first. *)

val iter : 'a t -> f:('a entry -> unit) -> unit

val find_first : 'a t -> after:Time.t -> f:('a -> bool) -> 'a entry option
(** First retained entry strictly after [after] whose event satisfies
    the predicate. *)

val clear : 'a t -> unit
(** Drop all retained entries and reset the {!dropped} counter.
    Observers stay subscribed. *)

val subscribe : 'a t -> ('a entry -> unit) -> unit
(** Register a live observer called on every subsequent [emit] (after the
    event is recorded).  Monitors use this to react during the run. *)
