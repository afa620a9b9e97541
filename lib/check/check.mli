(** Online correctness analyses for the simulated Raft cluster.

    Three tools in one module:

    - an {e invariant checker} that, hooked after every delivered DES
      event, asserts the five machine-checkable safety properties of the
      Raft paper (Election Safety, Leader Append-Only, Log Matching,
      Leader Completeness, State Machine Safety) plus monotonic
      [currentTerm] / [commitIndex], single-vote-per-term, pre-vote
      non-disruption, and the reconfiguration invariants (at most one
      pending config change, valid single-server steps with overlapping
      quorums between consecutive configs, no electoral power for
      learners), across all servers' observable states;
    - a {e trace digest} ({!Digest}): an order-sensitive FNV-1a hash of
      a cluster's probe trace, used as a determinism sanitizer for the
      domain-sharded campaign runner — identical [(seed, shard plan)]
      must produce bit-identical digests whatever the worker count;
    - structured {!Violation} reporting carrying the invariant name, the
      offending node and term, and the tail of the measurement trace so
      failures are diagnosable without re-running.

    The checker never mutates the cluster: it reads server state through
    the {!node_view} closures, so a deliberately broken state (or a toy
    node fabricated by a test) is checkable without a live cluster. *)

(** {1 Trace digests} *)

module Digest : sig
  type t
  (** A mutable FNV-1a (64-bit) accumulator. *)

  val create : unit -> t

  val feed_string : t -> string -> unit
  val feed_int : t -> int -> unit
  (** Folded in as 8 little-endian bytes. *)

  val feed_int64 : t -> int64 -> unit
  val value : t -> int64

  val of_string : string -> int64

  val combine : int64 list -> int64
  (** Order-sensitive fold of sub-digests (e.g. one per campaign shard,
      in shard order) into one digest. *)
end

(** {1 Checking modes} *)

type mode =
  | Off  (** no checking, no per-event overhead *)
  | Sample
      (** cheap state checks every 64th event, deep (pairwise log
          matching) checks every 8192nd — for long campaigns *)
  | Always
      (** cheap checks after every delivered event, deep checks every
          512th — for tests.  Transition-sensitive checks (pre-vote
          non-disruption) only run in this mode, since they require
          observing every intermediate state. *)

(** {1 Node views} *)

type node_view = {
  id : Netsim.Node_id.t;
  alive : unit -> bool;  (** not paused / crashed *)
  incarnation : unit -> int;
      (** bumped on crash-recovery; volatile baselines reset with it *)
  role : unit -> Raft.Types.role;
  term : unit -> Raft.Types.term;
  commit_index : unit -> Raft.Types.index;
  voted_for : unit -> Netsim.Node_id.t option;
  last_index : unit -> Raft.Types.index;
  snapshot_index : unit -> Raft.Types.index;
  term_at : Raft.Types.index -> Raft.Types.term option;
  entry_at : Raft.Types.index -> Raft.Log.entry option;
  voters : unit -> Netsim.Node_id.t list;
      (** voting members of the server's live configuration *)
  learners : unit -> Netsim.Node_id.t list;
  votes : unit -> Netsim.Node_id.t list;
      (** votes gathered in the current campaign (empty outside one) *)
}
(** What the checker can observe of one server, as closures so that the
    state is re-read at every check (and so tests can fabricate broken
    servers without a cluster). *)

val view_of_node : Raft.Node.t -> node_view
(** The view of a live simulated node; closures follow the node through
    crash-recovery (they always read the current server). *)

(** {1 Violations} *)

type violation = {
  invariant : string;
      (** e.g. ["election-safety"], ["log-matching"]; see DESIGN.md for
          the full list *)
  node : Netsim.Node_id.t option;  (** offending node, when one exists *)
  term : Raft.Types.term;  (** term in which the violation was observed *)
  detail : string;
  recent : string list;
      (** the last [<= 50] entries (oldest first) the observed trace
          ({!observe_trace}) retains at the violation, rendered
          ["<time> <probe>"] only then — the context needed to diagnose
          it; empty when no trace is observed *)
  flight : string list;
      (** the flight-recorder dump ({!set_flight_recorder}) captured at
          the instant of the violation: causally rendered trace tail and
          recorder window, empty when no recorder is installed *)
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

(** {1 The checker} *)

type t

val create : mode:mode -> nodes:node_view list -> unit -> t
(** A checker over an initial set of servers ({!add_view} grows it).
    The first view's [voters] at creation time seed the configuration
    history replayed by the config invariants.  [mode = Off] turns every
    entry point into a no-op. *)

val add_view : t -> node_view -> unit
(** Track one more server (a node added to the cluster at runtime).
    Subsequent checks cover it like any other. *)

val set_flight_recorder : t -> (unit -> string list) -> unit
(** Install the flight-recorder dump: called (lazily, only when a
    violation is actually raised) to capture the causal trace tail and
    the recorder window into {!violation.flight}.  Defaults to
    [fun () -> []]. *)

val observe_trace : t -> Raft.Probe.t Des.Mtrace.t -> unit
(** Subscribe to a cluster trace: role-change probes feed the
    historical election-safety registry (which sees {e every} leadership
    transition even in [Sample] mode), and violations report the trace's
    retained tail as {!violation.recent}. *)

val step : t -> unit
(** The per-event hook (install via {!Des.Engine.set_post_hook}):
    counts the event and runs the cheap and/or deep checks the mode's
    sampling schedule calls for.  Raises {!Violation} on the first
    broken invariant. *)

val check_now : t -> unit
(** Run the full battery (cheap + deep) immediately, regardless of mode
    and sampling — call at the end of a scenario for a final verdict.
    Raises {!Violation}. *)

val events_seen : t -> int
(** Events observed through {!step} (for sampling diagnostics). *)

val checks_run : t -> int
(** Cheap check passes actually executed. *)
