(** Hot-path loop builders and pinned perf plans shared by the bechamel
    microbenchmarks, the JSON report's perf_guard section and the
    perf-regression guard (`selfcheck --perf`).

    Every [make_*] builder returns a closure that replays one pinned
    operation; its minor-heap allocation per call is a constant of the
    code path (no GC- or time-dependent branching), so {!words_per_op}
    figures are exact and comparable across hosts. *)

val bench_log : unit -> Raft.Log.t
(** A 1000-entry log of identical KV [Put] commands. *)

val make_heartbeat_loop : unit -> unit -> unit
(** Follower handling one dynatune heartbeat (tuner observation
    included). *)

val make_leader_append_loop : unit -> unit -> unit
(** Leader handling a conflict nack that forces a 64-entry rebatch — a
    batch-cache hit in steady state. *)

val make_follower_append_loop : unit -> unit -> unit
(** Follower handling a duplicate 64-entry append through
    [Server.handle]: the full RPC path over the prefix scan. *)

val make_try_append_loop : unit -> unit -> unit
(** The same duplicate 64-entry append straight into
    [Raft.Log.try_append]: the log-matching prefix scan alone, the floor
    under the follower figure. *)

val make_vote_round_loop : unit -> unit -> unit
(** Follower granting one replayed pre-vote request: the vote checks and
    the response build, with no durable-state mutation. *)

val make_snapshot_install_loop : unit -> unit -> unit
(** Follower handling a replayed stale [Install_snapshot] (its commit
    point already covers the boundary): the receive path minus the
    one-off log wipe. *)

val words_per_op : (unit -> unit) -> float
(** Minor words allocated per call of [f], measured over 100k iterations
    after a 100-call warmup. *)

val guard_loops : (string * (unit -> unit -> unit)) list
(** The words/op rows the perf guard ratchets, keyed by their
    [perf_guard] field name in the baseline report. *)

val steady_state_alloc :
  ?forensics:Telemetry.Forensics.t -> unit -> float * int
(** The pinned steady-state plan: a seed-5 three-server dynatune cluster,
    elected and run 10 s, then measured over 120 s.  Returns the minor
    words allocated and the DES events processed in that window — both
    constants of the seed.  Raises [Failure] if no leader is elected. *)

val steady_state_words_per_event :
  ?forensics:Telemetry.Forensics.t -> unit -> float
(** {!steady_state_alloc}'s words divided by its events. *)

val fig4_guard_plan : string
(** Description of {!fig4_guard}, as the report prints it. *)

val fig4_guard : unit -> Scenarios.Fig4.result
(** The fig4 guard plan: seed 42, 400 dynatune failovers over 4 shards,
    [jobs = 1]. *)

val multiraft_guard_plan : string

val multiraft_guard : unit -> Scenarios.Multiraft.result
(** The multiraft guard plan: seed 11, 4 three-replica groups at 500 and
    1000 req/s, [jobs = 1]. *)
