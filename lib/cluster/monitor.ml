module Node_id = Netsim.Node_id

let randomized_timeouts_ms t =
  Cluster.nodes t
  |> List.filter_map (fun n ->
         let server = Raft.Node.server n in
         if Raft.Types.is_leader (Raft.Server.role server) then None
         else
           Some (Des.Time.to_ms_f (Raft.Server.randomized_timeout server)))

let majority_randomized_ms t =
  let sorted = List.sort Float.compare (randomized_timeouts_ms t) in
  let f = Cluster.size t / 2 in
  List.nth_opt sorted f

let election_timeout_ms t id =
  Des.Time.to_ms_f
    (Raft.Server.election_timeout_now (Raft.Node.server (Cluster.node t id)))

let leader_h_ms t ~follower =
  match Cluster.leader t with
  | None -> None
  | Some l -> (
      match
        Raft.Server.heartbeat_interval_to (Raft.Node.server l) follower
      with
      | Some h when not (Node_id.equal (Raft.Node.id l) follower) ->
          Some (Des.Time.to_ms_f h)
      | Some _ | None -> None)

let gap = function Some v -> v | None -> nan
let has_leader t = Cluster.leader t <> None

type probe = { name : string; read : Cluster.t -> float }

let watch t ~every ~duration ~probes =
  if every <= 0 then invalid_arg "Monitor.watch: period must be positive";
  let series =
    List.map (fun p -> (p, Stats.Timeseries.create ~name:p.name ())) probes
  in
  let engine = Cluster.engine t in
  let stop_at = Des.Time.add (Des.Engine.now engine) duration in
  let rec arm () =
    ignore
      (Des.Engine.schedule_after engine every Des.Engine.thunk
         (fun () ->
           let now_sec = Des.Time.to_sec_f (Des.Engine.now engine) in
           List.iter
             (fun (p, ts) ->
               Stats.Timeseries.push ts ~time:now_sec ~value:(p.read t))
             series;
           if Des.Engine.now engine < stop_at then arm ())
         () 0
        : Des.Engine.handle)
  in
  arm ();
  Des.Engine.run_until engine stop_at;
  List.map (fun (p, ts) -> (p.name, ts)) series

let leaderless_intervals t ~from ~until =
  let roles : Raft.Types.role Node_id.Table.t =
    Node_id.Table.create (Cluster.size t)
  in
  let paused = Node_id.Table.create (Cluster.size t) in
  let count_leaders () =
    Node_id.Table.fold
      (fun id role acc ->
        if Raft.Types.is_leader role && not (Node_id.Table.mem paused id) then
          acc + 1
        else acc)
      roles 0
  in
  (* Replay role and fault events from the beginning of the trace;
     everyone starts as a follower, so the run begins leaderless.  A
     paused leader does not count as a leader (the container-sleep fault
     takes it out of service even though its role never changed). *)
  let intervals = ref [] in
  let gap_start = ref (Some Des.Time.zero) in
  let transition time change =
    let before = count_leaders () in
    change ();
    let after = count_leaders () in
    if before = 0 && after > 0 then begin
      (match !gap_start with
      | Some s when time > s -> intervals := (s, time) :: !intervals
      | Some _ | None -> ());
      gap_start := None
    end
    else if before > 0 && after = 0 then gap_start := Some time
  in
  Des.Mtrace.iter (Cluster.trace t)
    ~f:(fun { Des.Mtrace.at = time; ev; _ } ->
      if time <= until then
        match ev with
        | Raft.Probe.Role_change { id; role; _ } ->
            transition time (fun () -> Node_id.Table.replace roles id role)
        | Raft.Probe.Node_paused { id; _ } ->
            transition time (fun () -> Node_id.Table.replace paused id ())
        | Raft.Probe.Node_resumed { id; _ } ->
            transition time (fun () -> Node_id.Table.remove paused id)
        | Raft.Probe.Timeout_expired _ | Raft.Probe.Pre_vote_aborted _
        | Raft.Probe.Tuner_reset _ | Raft.Probe.Tuner_decision _
        | Raft.Probe.Election_started _ | Raft.Probe.Config_change _
        | Raft.Probe.Transfer_started _ | Raft.Probe.Transfer_aborted _
        | Raft.Probe.Vote_received _ ->
            ());
  (match !gap_start with
  | Some s when until > s -> intervals := (s, until) :: !intervals
  | Some _ | None -> ());
  (* Clip to the requested window. *)
  List.rev !intervals
  |> List.filter_map (fun (s, e) ->
         let s = Stdlib.max s from and e = Stdlib.min e until in
         if e > s then Some (s, e) else None)

let total_ots_ms t ~from ~until =
  leaderless_intervals t ~from ~until
  |> List.fold_left
       (fun acc (s, e) -> acc +. Des.Time.to_ms_f (Des.Time.diff e s))
       0.
