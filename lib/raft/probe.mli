(** Observable protocol events emitted into the shared trace — the one
    transition vocabulary of the simulator.

    The cluster monitor reconstructs the paper's measurements from these:
    detection time (timer expiries after a failure), OTS time (leadership
    establishment), split votes (repeated campaigns per term), and
    Dynatune's fallback behaviour (tuner resets, pre-vote aborts).  With
    causal tracking on ([Node.create ~forensics]) the same entries carry
    cause stamps ({!Des.Mtrace.entry}) and are the raw material of the
    [explain] analysis and the flight recorder ({!render_entry}).

    Every constructor carries the emitting node and the term it was in. *)

type decision_reason =
  | Warmed  (** first tuned values after leaving Step 0 (warming) *)
  | Retuned  (** a subsequent measurement window changed [Et]/[H]/[k] *)
  | Reconfigured
      (** first tuned values after a committed membership change forced
          the tuner back into warm-up (stale link measurements) *)

type t =
  | Role_change of { id : Netsim.Node_id.t; role : Types.role; term : Types.term }
  | Timeout_expired of {
      id : Netsim.Node_id.t;
      term : Types.term;
      randomized : Des.Time.span;  (** the randomizedTimeout that expired *)
      et : Des.Time.span;
          (** base Et in force once the expiry was processed.  A tuned
              follower falls back to defaults on suspicion, so after a
              real leader loss this reads the post-reset default;
              [randomized] preserves the tuned draw that actually
              expired. *)
      h : Des.Time.span;  (** heartbeat interval in force *)
      k : int;  (** required heartbeats K ([0] without a tuner) *)
    }
  | Pre_vote_aborted of { id : Netsim.Node_id.t; term : Types.term }
      (** leader contact arrived during a pre-campaign *)
  | Tuner_reset of { id : Netsim.Node_id.t; term : Types.term }
  | Tuner_decision of {
      id : Netsim.Node_id.t;
      term : Types.term;
      rtt_ms : float;  (** mean heartbeat RTT the tuner measured *)
      rtt_std_ms : float;
      loss : float;  (** estimated heartbeat loss rate, [0, 1] *)
      k : int;  (** required consecutive misses before suspicion *)
      et : Des.Time.span;  (** chosen election timeout *)
      h : Des.Time.span;  (** chosen heartbeat interval *)
      reason : decision_reason;
    }
      (** A follower's tuner adopted new parameters.  Emitted only by
          instrumented servers ([Server.set_instrument]) and only when the
          chosen [(et, h, k)] differs from the previous decision, so the
          trace records parameter {e changes}, not every heartbeat. *)
  | Election_started of { id : Netsim.Node_id.t; term : Types.term }
      (** a real (post-pre-vote) campaign began *)
  | Node_paused of { id : Netsim.Node_id.t; term : Types.term }
      (** fault injection froze the node (container sleep) *)
  | Node_resumed of { id : Netsim.Node_id.t; term : Types.term }
  | Config_change of {
      id : Netsim.Node_id.t;
      term : Types.term;
      index : Types.index;
      change : Log.change;
      committed : bool;
          (** [false] when the leader appends the entry (the change is
              already effective), [true] on every node whose commit index
              passes it *)
    }
  | Transfer_started of {
      id : Netsim.Node_id.t;
      term : Types.term;
      target : Netsim.Node_id.t;
    }  (** the leader began a leadership transfer ([TimeoutNow] pending) *)
  | Transfer_aborted of { id : Netsim.Node_id.t; term : Types.term }
      (** the transfer window elapsed without the target taking over *)
  | Vote_received of {
      id : Netsim.Node_id.t;
      term : Types.term;  (** the receiver's term at delivery *)
      from : Netsim.Node_id.t;
      granted : bool;
      pre : bool;  (** a pre-vote response *)
    }
      (** A (pre-)vote response reached [id].  Emitted only with causal
          tracking on, at delivery: it is what carries a campaign's
          cause back from the voters, so the protocol measurements above
          never depend on it. *)

val reason_name : decision_reason -> string
(** ["warmed"] / ["retuned"] / ["reconfigured"]. *)

val pp : Format.formatter -> t -> unit
(** One line per transition, as the trace digests and the checker's
    violation context print it. *)

val node : t -> Netsim.Node_id.t
val term : t -> Types.term

val render_entry : t Des.Mtrace.entry -> string
(** The causal rendering of a stamped entry, one deterministic line:
    ["<time> n<id> t<term> <cause><-<parent> <transition>"], causes
    printed by {!Telemetry.Cause.to_string}.  [explain], its [--raw]
    dump and the flight recorder print entries this way. *)
