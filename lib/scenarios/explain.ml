module Cluster = Harness.Cluster
module Fault = Harness.Fault
module Probe = Raft.Probe

type entry = Probe.t Des.Mtrace.entry

type election = {
  term : int;
  winner : int;
  won_at : Des.Time.t;
  cause : Telemetry.Cause.t;
  justified : bool;
  prior_leader : int option;
  provenance : entry option;
  chain : entry list;
}

(* A fold over the stream, oldest first.  Liveness bookkeeping (who is
   paused at each instant) decides justified vs spurious; the per-cause
   index reassembles each election's chain — the election-timer cause
   propagates through vote requests to the voters and back on their
   responses, so every entry it stamps belongs to one campaign. *)
let analyze (entries : entry list) =
  let by_cause : (Telemetry.Cause.t, entry list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (e : entry) ->
      if not (Telemetry.Cause.is_none e.cause) then
        Hashtbl.replace by_cause e.cause
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_cause e.cause)))
    entries;
  let chain_of c =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt by_cause c))
  in
  let down = Hashtbl.create 8 in
  let last_tuner = Hashtbl.create 8 in
  let cur_leader = ref None in
  let out = ref [] in
  List.iter
    (fun (e : entry) ->
      let node = Netsim.Node_id.to_int (Probe.node e.ev) in
      match e.ev with
      | Probe.Node_paused _ -> Hashtbl.replace down node ()
      | Probe.Node_resumed _ -> Hashtbl.remove down node
      | Probe.Tuner_decision _ -> Hashtbl.replace last_tuner node e
      | Probe.Role_change { role = Raft.Types.Leader; term; _ } ->
          let prior = !cur_leader in
          let justified =
            match prior with None -> true | Some l -> Hashtbl.mem down l
          in
          cur_leader := Some node;
          out :=
            {
              term;
              winner = node;
              won_at = e.at;
              cause = e.cause;
              justified;
              prior_leader = prior;
              provenance = Hashtbl.find_opt last_tuner node;
              chain = chain_of e.cause;
            }
            :: !out
      | Probe.Role_change _ | Probe.Timeout_expired _
      | Probe.Pre_vote_aborted _ | Probe.Tuner_reset _
      | Probe.Election_started _ | Probe.Config_change _
      | Probe.Transfer_started _ | Probe.Transfer_aborted _
      | Probe.Vote_received _ ->
          ())
    entries;
  List.rev !out

let run ?(seed = 23L) ?(failures = 3) ?(config = Raft.Config.dynatune ()) () =
  let forensics = Telemetry.Forensics.create () in
  let telemetry = Telemetry.Metrics.create ~enabled:true () in
  let cluster =
    Cluster.create ~seed ~n:5 ~config ~telemetry ~forensics ()
  in
  Geo.apply cluster ();
  Cluster.start cluster;
  (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 60) with
  | Some _ -> ()
  | None -> failwith "explain: initial election failed");
  Cluster.run_for cluster (Des.Time.sec 30);
  for _ = 1 to failures do
    match Fault.kill_leader cluster with
    | Some (failed, _) ->
        (match Cluster.await_leader cluster ~timeout:(Des.Time.sec 120) with
        | Some _ -> ()
        | None -> failwith "explain: no re-election after a leader kill");
        Cluster.run_for cluster (Des.Time.sec 5);
        Fault.recover cluster failed;
        Cluster.run_for cluster (Des.Time.sec 10)
    | None -> failwith "explain: no leader to kill"
  done;
  Des.Mtrace.events (Cluster.trace cluster)

let verdict e =
  if e.justified then
    match e.prior_leader with
    | None -> "justified (no prior leader)"
    | Some l -> Printf.sprintf "justified (leader n%d was down)" l
  else
    match e.prior_leader with
    | Some l -> Printf.sprintf "spurious (leader n%d was live)" l
    | None -> "justified (no prior leader)"

let print ppf elections =
  Report.banner ppf "explain: causal forensics of every leadership change";
  let justified =
    List.length (List.filter (fun e -> e.justified) elections)
  in
  Report.kv ppf "leadership changes"
    (Printf.sprintf "%d (%d justified, %d spurious)" (List.length elections)
       justified
       (List.length elections - justified));
  List.iteri
    (fun i e ->
      Report.subhead ppf
        (Format.asprintf "election %d: n%d won term %d at %a — %s" (i + 1)
           e.winner e.term Des.Time.pp e.won_at (verdict e));
      Report.kv ppf "cause" (Telemetry.Cause.to_string e.cause);
      Report.kv ppf "provenance"
        (match e.provenance with
        | Some e -> Probe.render_entry e
        | None -> "defaults (no tuner decision recorded)");
      List.iter
        (fun e -> Report.kv ppf "chain" (Probe.render_entry e))
        e.chain)
    elections
