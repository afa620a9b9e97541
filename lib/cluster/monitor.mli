(** Live measurement utilities over a running cluster.

    These implement the paper's observation methodology: per-second
    sampling of the (f+1)-th smallest randomizedTimeout (Fig 6), of the
    applied heartbeat interval (Fig 7a), and reconstruction of
    out-of-service intervals from the role-change trace (the background
    shading of Fig 6). *)

val randomized_timeouts_ms : Cluster.t -> float list
(** Current randomizedTimeout of every non-leader node, ms, unsorted. *)

val majority_randomized_ms : Cluster.t -> float option
(** The (f+1)-th smallest of the above — the value at which a pre-vote
    quorum becomes possible.  [None] when not enough followers. *)

val election_timeout_ms : Cluster.t -> Netsim.Node_id.t -> float
(** Node's current base [Et] (tuned or default). *)

val leader_h_ms : Cluster.t -> follower:Netsim.Node_id.t -> float option
(** The heartbeat interval the current leader applies toward [follower];
    [None] when there is no leader (or the follower {e is} the leader). *)

val gap : float option -> float
(** [None] rendered as [nan] — for plotted time series, where a missing
    sample must become a gap in the curve rather than a point. *)

val has_leader : Cluster.t -> bool

type probe = { name : string; read : Cluster.t -> float }

val watch :
  Cluster.t ->
  every:Des.Time.span ->
  duration:Des.Time.span ->
  probes:probe list ->
  (string * Stats.Timeseries.t) list
(** Advance the simulation by [duration], sampling every probe at the
    given period; returns one time series (times in seconds) per probe.
    NaN samples are recorded as-is (plotted series show gaps). *)

type tally = {
  timeouts : int;  (** election-timer expiries *)
  elections : int;  (** real campaigns started *)
  pre_vote_aborts : int;
}

val tally :
  Raft.Probe.t Des.Mtrace.t -> from:Des.Time.t -> until:Des.Time.t -> tally
(** Count the trace's protocol events with timestamp in [(from, until\]]
    — the window a scenario measured after advancing from [from] to
    [until].  Like {!leaderless_intervals}, sees only retained entries. *)

val leaderless_intervals :
  Cluster.t -> from:Des.Time.t -> until:Des.Time.t ->
  (Des.Time.t * Des.Time.t) list
(** Out-of-service intervals within the window, reconstructed from the
    role-change trace.  Requires the trace not to have been cleared since
    before [from], {e and} not capacity-trimmed over the window: replay
    only sees what [Mtrace.events] retains, so clusters measured with
    this must keep the default unbounded trace (see the retention
    contract in {!Des.Mtrace}). *)

val total_ots_ms : Cluster.t -> from:Des.Time.t -> until:Des.Time.t -> float
(** Sum of the leaderless interval lengths in the window. *)
