type decision_reason = Warmed | Retuned | Reconfigured

type t =
  | Role_change of { id : Netsim.Node_id.t; role : Types.role; term : Types.term }
  | Timeout_expired of {
      id : Netsim.Node_id.t;
      term : Types.term;
      randomized : Des.Time.span;
      et : Des.Time.span;
      h : Des.Time.span;
      k : int;
    }
  | Pre_vote_aborted of { id : Netsim.Node_id.t; term : Types.term }
  | Tuner_reset of { id : Netsim.Node_id.t; term : Types.term }
  | Tuner_decision of {
      id : Netsim.Node_id.t;
      term : Types.term;
      rtt_ms : float;
      rtt_std_ms : float;
      loss : float;
      k : int;
      et : Des.Time.span;
      h : Des.Time.span;
      reason : decision_reason;
    }
  | Election_started of { id : Netsim.Node_id.t; term : Types.term }
  | Node_paused of { id : Netsim.Node_id.t; term : Types.term }
  | Node_resumed of { id : Netsim.Node_id.t; term : Types.term }
  | Config_change of {
      id : Netsim.Node_id.t;
      term : Types.term;
      index : Types.index;
      change : Log.change;
      committed : bool;
    }
  | Transfer_started of {
      id : Netsim.Node_id.t;
      term : Types.term;
      target : Netsim.Node_id.t;
    }
  | Transfer_aborted of { id : Netsim.Node_id.t; term : Types.term }
  | Vote_received of {
      id : Netsim.Node_id.t;
      term : Types.term;
      from : Netsim.Node_id.t;
      granted : bool;
      pre : bool;
    }

let reason_name = function
  | Warmed -> "warmed"
  | Retuned -> "retuned"
  | Reconfigured -> "reconfigured"

let vote_kind pre = if pre then "pre-vote" else "vote"
let vote_verdict granted = if granted then "granted" else "denied"

let pp ppf = function
  | Role_change { id; role; term } ->
      Format.fprintf ppf "%a -> %s (term %d)" Netsim.Node_id.pp id
        (Types.role_name role) term
  | Timeout_expired { id; term; randomized; _ } ->
      Format.fprintf ppf "%a timeout (%a) in term %d" Netsim.Node_id.pp id
        Des.Time.pp_ms randomized term
  | Pre_vote_aborted { id; term } ->
      Format.fprintf ppf "%a pre-vote aborted (term %d)" Netsim.Node_id.pp id
        term
  | Tuner_reset { id; _ } ->
      Format.fprintf ppf "%a tuner reset" Netsim.Node_id.pp id
  | Tuner_decision { id; rtt_ms; rtt_std_ms; loss; k; et; h; reason; _ } ->
      Format.fprintf ppf
        "%a tuner %s: rtt %.3f±%.3fms loss %.4f -> Et %a H %a k %d"
        Netsim.Node_id.pp id (reason_name reason) rtt_ms rtt_std_ms loss
        Des.Time.pp_ms et Des.Time.pp_ms h k
  | Election_started { id; term } ->
      Format.fprintf ppf "%a election started (term %d)" Netsim.Node_id.pp id
        term
  | Node_paused { id; _ } ->
      Format.fprintf ppf "%a paused" Netsim.Node_id.pp id
  | Node_resumed { id; _ } ->
      Format.fprintf ppf "%a resumed" Netsim.Node_id.pp id
  | Config_change { id; term; index; change; committed } ->
      Format.fprintf ppf "%a config %s %a at index %d (term %d)"
        Netsim.Node_id.pp id
        (if committed then "committed" else "appended")
        Log.pp_change change index term
  | Transfer_started { id; term; target } ->
      Format.fprintf ppf "%a transfer to %a (term %d)" Netsim.Node_id.pp id
        Netsim.Node_id.pp target term
  | Transfer_aborted { id; term } ->
      Format.fprintf ppf "%a transfer aborted (term %d)" Netsim.Node_id.pp id
        term
  | Vote_received { id; term; from; granted; pre } ->
      Format.fprintf ppf "%a %s from %a %s (term %d)" Netsim.Node_id.pp id
        (vote_kind pre) Netsim.Node_id.pp from (vote_verdict granted) term

let node = function
  | Role_change { id; _ }
  | Timeout_expired { id; _ }
  | Pre_vote_aborted { id; _ }
  | Tuner_reset { id; _ }
  | Tuner_decision { id; _ }
  | Election_started { id; _ }
  | Node_paused { id; _ }
  | Node_resumed { id; _ }
  | Config_change { id; _ }
  | Transfer_started { id; _ }
  | Transfer_aborted { id; _ }
  | Vote_received { id; _ } ->
      id

let term = function
  | Role_change { term; _ }
  | Timeout_expired { term; _ }
  | Pre_vote_aborted { term; _ }
  | Tuner_reset { term; _ }
  | Tuner_decision { term; _ }
  | Election_started { term; _ }
  | Node_paused { term; _ }
  | Node_resumed { term; _ }
  | Config_change { term; _ }
  | Transfer_started { term; _ }
  | Transfer_aborted { term; _ }
  | Vote_received { term; _ } ->
      term

(* The causal view of a transition: what happened, without the node and
   term the entry prefix already carries. *)
let pp_transition ppf = function
  | Timeout_expired { randomized; et; h; k; _ } ->
      Format.fprintf ppf "timeout fired (randomized %a) Et=%a h=%a K=%d"
        Des.Time.pp_ms randomized Des.Time.pp_ms et Des.Time.pp_ms h k
  | Election_started _ -> Format.pp_print_string ppf "campaign started"
  | Role_change { role; _ } ->
      Format.fprintf ppf "role -> %s" (Types.role_name role)
  | Vote_received { from; granted; pre; _ } ->
      Format.fprintf ppf "%s from n%d: %s" (vote_kind pre)
        (Netsim.Node_id.to_int from)
        (vote_verdict granted)
  | Tuner_decision { rtt_ms; loss; et; h; k; reason; _ } ->
      Format.fprintf ppf "tuner %s: rtt %.3fms loss %.4f -> Et=%a h=%a K=%d"
        (reason_name reason) rtt_ms loss Des.Time.pp_ms et Des.Time.pp_ms h k
  | Tuner_reset _ -> Format.pp_print_string ppf "tuner reset"
  | Pre_vote_aborted _ -> Format.pp_print_string ppf "pre-vote aborted"
  | Node_paused _ -> Format.pp_print_string ppf "paused"
  | Node_resumed _ -> Format.pp_print_string ppf "resumed"
  | Transfer_started { target; _ } ->
      Format.fprintf ppf "transfer to n%d" (Netsim.Node_id.to_int target)
  | Transfer_aborted _ -> Format.pp_print_string ppf "transfer aborted"
  | Config_change { change; committed; _ } ->
      (* Rendered on its own first, so the derived printer's break hints
         never interact with the surrounding line. *)
      Format.fprintf ppf "config %s %s"
        (if committed then "committed" else "appended")
        (Format.asprintf "%a" Log.pp_change change)

let render_entry (e : t Des.Mtrace.entry) =
  Format.asprintf "%a n%d t%d %s<-%s %a" Des.Time.pp e.at
    (Netsim.Node_id.to_int (node e.ev))
    (term e.ev)
    (Telemetry.Cause.to_string e.cause)
    (Telemetry.Cause.to_string e.parent)
    pp_transition e.ev
