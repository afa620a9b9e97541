module Node_id = Netsim.Node_id
module Types = Raft.Types
module Log = Raft.Log

(* {1 Trace digests} *)

module Digest = struct
  type t = { mutable h : int64 }

  let fnv_offset = 0xCBF29CE484222325L
  let fnv_prime = 0x100000001B3L

  let create () = { h = fnv_offset }

  let feed_byte t b =
    t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xff))) fnv_prime

  let feed_string t s = String.iter (fun c -> feed_byte t (Char.code c)) s

  let feed_int64 t i =
    for shift = 0 to 7 do
      feed_byte t (Int64.to_int (Int64.shift_right_logical i (8 * shift)))
    done

  let feed_int t i = feed_int64 t (Int64.of_int i)
  let value t = t.h

  let of_string s =
    let t = create () in
    feed_string t s;
    value t

  let combine ds =
    let t = create () in
    List.iter (feed_int64 t) ds;
    value t
end

(* {1 Modes and views} *)

type mode = Off | Sample | Always

type node_view = {
  id : Node_id.t;
  alive : unit -> bool;
  incarnation : unit -> int;
  role : unit -> Types.role;
  term : unit -> Types.term;
  commit_index : unit -> Types.index;
  voted_for : unit -> Node_id.t option;
  last_index : unit -> Types.index;
  snapshot_index : unit -> Types.index;
  term_at : Types.index -> Types.term option;
  entry_at : Types.index -> Log.entry option;
  voters : unit -> Node_id.t list;
  learners : unit -> Node_id.t list;
  votes : unit -> Node_id.t list;
}

let view_of_node node =
  (* Read through [Raft.Node.server] on every call: crash-recovery
     replaces the server instance. *)
  let server () = Raft.Node.server node in
  {
    id = Raft.Node.id node;
    alive = (fun () -> not (Raft.Node.is_paused node));
    incarnation = (fun () -> Raft.Node.incarnation node);
    role = (fun () -> Raft.Server.role (server ()));
    term = (fun () -> Raft.Server.term (server ()));
    commit_index = (fun () -> Raft.Server.commit_index (server ()));
    voted_for = (fun () -> Raft.Server.voted_for (server ()));
    last_index = (fun () -> Log.last_index (Raft.Server.log (server ())));
    snapshot_index =
      (fun () -> Log.snapshot_index (Raft.Server.log (server ())));
    term_at = (fun i -> Log.term_at (Raft.Server.log (server ())) i);
    entry_at = (fun i -> Log.entry_at (Raft.Server.log (server ())) i);
    voters = (fun () -> Raft.Server.voters (server ()));
    learners = (fun () -> Raft.Server.learners (server ()));
    votes = (fun () -> Raft.Server.votes (server ()));
  }

(* {1 Violations} *)

type violation = {
  invariant : string;
  node : Node_id.t option;
  term : Types.term;
  detail : string;
  recent : string list;
  flight : string list;
}

exception Violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>invariant %s violated" v.invariant;
  (match v.node with
  | Some id -> Format.fprintf ppf " by %a" Node_id.pp id
  | None -> ());
  Format.fprintf ppf " (term %d): %s" v.term v.detail;
  if v.recent <> [] then begin
    Format.fprintf ppf "@,last %d trace events:" (List.length v.recent);
    List.iter (fun line -> Format.fprintf ppf "@,  %s" line) v.recent
  end;
  if v.flight <> [] then begin
    Format.fprintf ppf "@,flight recorder (%d lines):" (List.length v.flight);
    List.iter (fun line -> Format.fprintf ppf "@,  %s" line) v.flight
  end;
  Format.fprintf ppf "@]"

let () =
  Printexc.register_printer (function
    | Violation v -> Some (Format.asprintf "Check.Violation: %a" pp_violation v)
    | _ -> None)

(* {1 Checker state} *)

(* Volatile per-node baselines from the previous check; reset when the
   node's incarnation changes (crash-recovery). *)
type tracked = {
  view : node_view;
  mutable inc : int;
  mutable prev_term : Types.term;
  mutable prev_commit : Types.index;
  mutable prev_role : Types.role;
  mutable prev_vote : Node_id.t option;  (* vote recorded at [prev_term] *)
  mutable registered : Types.index;
      (* committed entries up to here have been folded into [committed] *)
  mutable leader_mark : (Types.term * Types.index * Types.term) option;
      (* (term, last_index, term of last entry) when last seen leading *)
}

(* Trace entries a violation report carries as context. *)
let recent_window = 50

type t = {
  mode : mode;
  mutable nodes : tracked array;
  initial_voters : Node_id.t list;
      (* voting membership when the checker was created; committed
         Config entries replay on top of it in the deep check *)
  committed : (Types.index, Types.term * Log.command) Hashtbl.t;
  leaders_by_term : (Types.term, Node_id.t) Hashtbl.t;
  mutable trace : Raft.Probe.t Des.Mtrace.t option;
      (* the observed cluster trace: violations render its tail *)
  mutable events : int;
  mutable checks : int;
  mutable flight_fn : unit -> string list;
      (* snapshots the forensics ring / recorder window at the instant a
         violation is raised; defaults to nothing *)
}

let cheap_every = function Off -> 0 | Sample -> 64 | Always -> 1
let deep_every = function Off -> 0 | Sample -> 8192 | Always -> 512

let tracked_of_view view =
  {
    view;
    inc = view.incarnation ();
    prev_term = view.term ();
    prev_commit = view.commit_index ();
    prev_role = view.role ();
    prev_vote = view.voted_for ();
    registered = view.snapshot_index ();
    leader_mark = None;
  }

let create ~mode ~nodes () =
  {
    mode;
    nodes = Array.of_list (List.map tracked_of_view nodes);
    initial_voters =
      (match nodes with [] -> [] | v :: _ -> v.voters ());
    committed = Hashtbl.create 256;
    leaders_by_term = Hashtbl.create 64;
    trace = None;
    events = 0;
    checks = 0;
    flight_fn = (fun () -> []);
  }

let add_view t view =
  t.nodes <- Array.append t.nodes [| tracked_of_view view |]

let set_flight_recorder t fn = t.flight_fn <- fn

let events_seen t = t.events
let checks_run t = t.checks

(* Formatted only here, when a violation is actually raised. *)
let recent t =
  match t.trace with
  | None -> []
  | Some trace ->
      List.map
        (fun (e : Raft.Probe.t Des.Mtrace.entry) ->
          Format.asprintf "%a %a" Des.Time.pp e.at Raft.Probe.pp e.ev)
        (Des.Mtrace.tail trace recent_window)

let fail t ~invariant ?node ~term fmt =
  Format.kasprintf
    (fun detail ->
      raise
        (Violation
           {
             invariant;
             node;
             term;
             detail;
             recent = recent t;
             flight = t.flight_fn ();
           }))
    fmt

(* {2 Election safety (historical, probe-driven)} *)

(* The Role_change probe stream is complete even when state checks are
   sampled, so leadership history is checked exactly. *)
let on_probe t (e : Raft.Probe.t Des.Mtrace.entry) =
  match e.ev with
  | Raft.Probe.Role_change { id; role = Types.Leader; term } -> (
      match Hashtbl.find_opt t.leaders_by_term term with
      | Some other when not (Node_id.equal other id) ->
          fail t ~invariant:"election-safety" ~node:id ~term
            "second leader elected in term %d: %a was already leader" term
            Node_id.pp other
      | Some _ | None -> Hashtbl.replace t.leaders_by_term term id)
  | Raft.Probe.Role_change _ | Raft.Probe.Timeout_expired _
  | Raft.Probe.Pre_vote_aborted _ | Raft.Probe.Tuner_reset _
  | Raft.Probe.Tuner_decision _ | Raft.Probe.Election_started _
  | Raft.Probe.Node_paused _ | Raft.Probe.Node_resumed _
  | Raft.Probe.Config_change _ | Raft.Probe.Transfer_started _
  | Raft.Probe.Transfer_aborted _ | Raft.Probe.Vote_received _ ->
      ()

let observe_trace t trace =
  t.trace <- Some trace;
  Des.Mtrace.subscribe trace (on_probe t)

(* {2 Commit registry: State Machine Safety and Leader Completeness} *)

(* Every index a node's commit point has covered is registered with the
   (term, command) its log holds there.  Two nodes committing different
   entries at one index is exactly a State Machine Safety violation. *)
let scan_commits t tr =
  let v = tr.view in
  let commit = v.commit_index () in
  let snap = v.snapshot_index () in
  (* Entries at or below the snapshot boundary were compacted away; they
     were committed and checked before (or arrived via InstallSnapshot,
     which only covers committed state). *)
  if tr.registered < snap then tr.registered <- snap;
  while tr.registered < commit do
    let i = tr.registered + 1 in
    (match v.entry_at i with
    | None ->
        fail t ~invariant:"state-machine-safety" ~node:v.id ~term:(v.term ())
          "commit index %d covers index %d but the log has no entry there"
          commit i
    | Some e -> (
        match Hashtbl.find_opt t.committed i with
        | Some (tm, cmd) ->
            if tm <> e.Log.term || not (Log.equal_command cmd e.Log.command)
            then
              fail t ~invariant:"state-machine-safety" ~node:v.id
                ~term:(v.term ())
                "index %d committed as (term %d, %s) elsewhere but (term %d, \
                 %s) here"
                i tm (Log.show_command cmd) e.Log.term
                (Log.show_command e.Log.command)
        | None -> Hashtbl.replace t.committed i (e.Log.term, e.Log.command)));
    tr.registered <- i
  done

(* A leader's log must contain every committed entry (Leader
   Completeness; entries at or below its snapshot boundary are
   committed state by construction).

   Only sound for a leader holding the globally highest term: the
   theorem binds leaders of terms {e above} the committing term, so a
   stale leader — paused or partitioned while a successor commits — is
   legitimately incomplete.  Callers enforce the term guard. *)
let leader_completeness t tr =
  let v = tr.view in
  let term = v.term () in
  let snap = v.snapshot_index () in
  let last = v.last_index () in
  Hashtbl.iter
    (fun i (tm, _cmd) ->
      if i > snap then
        if i > last then
          fail t ~invariant:"leader-completeness" ~node:v.id ~term
            "leader's log ends at %d but index %d was committed (term %d)"
            last i tm
        else
          match v.term_at i with
          | Some lt when lt = tm -> ()
          | Some lt ->
              fail t ~invariant:"leader-completeness" ~node:v.id ~term
                "leader holds term %d at index %d but term %d was committed \
                 there"
                lt i tm
          | None ->
              fail t ~invariant:"leader-completeness" ~node:v.id ~term
                "leader's log has no entry at committed index %d" i)
    t.committed

(* {2 Cheap per-node checks} *)

let global_max_term t =
  Array.fold_left (fun acc tr -> Stdlib.max acc (tr.view.term ())) 0 t.nodes

let check_node t ~max_term tr =
  let v = tr.view in
  let inc = v.incarnation () in
  let term = v.term () in
  let role = v.role () in
  if inc <> tr.inc then begin
    (* Crash-recovery: volatile state (role, commit index) legitimately
       reset, but durable state must have survived. *)
    if term < tr.prev_term then
      fail t ~invariant:"term-monotonic" ~node:v.id ~term
        "restart lost the current term: %d persisted, %d after recovery"
        tr.prev_term term;
    tr.inc <- inc;
    tr.prev_commit <- v.commit_index ();
    tr.prev_role <- role;
    tr.prev_vote <- v.voted_for ();
    tr.registered <- v.snapshot_index ();
    tr.leader_mark <- None
  end
  else begin
    if term < tr.prev_term then
      fail t ~invariant:"term-monotonic" ~node:v.id ~term
        "currentTerm went backwards: %d -> %d" tr.prev_term term;
    let commit = v.commit_index () in
    if commit < tr.prev_commit then
      fail t ~invariant:"commit-monotonic" ~node:v.id ~term
        "commitIndex went backwards: %d -> %d" tr.prev_commit commit;
    let vote = v.voted_for () in
    if term = tr.prev_term then begin
      match (tr.prev_vote, vote) with
      | Some a, Some b when not (Node_id.equal a b) ->
          fail t ~invariant:"single-vote" ~node:v.id ~term
            "vote changed within term %d: %a -> %a" term Node_id.pp a
            Node_id.pp b
      | Some a, None ->
          fail t ~invariant:"single-vote" ~node:v.id ~term
            "vote for %a retracted within term %d" Node_id.pp a term
      | (None | Some _), _ -> ()
    end;
    (* Pre-vote must not disturb terms.  Only sound when every event is
       observed: under sampling, a legitimate real candidacy can hide
       between two observations of the same node. *)
    if
      t.mode = Always
      && Types.equal_role role Types.Pre_candidate
      && (not (Types.equal_role tr.prev_role Types.Pre_candidate))
      && term <> tr.prev_term
    then
      fail t ~invariant:"pre-vote-disruption" ~node:v.id ~term
        "term changed %d -> %d while entering the pre-vote phase"
        tr.prev_term term
  end;
  (* Leader Append-Only: while the same node leads in the same term, its
     log may only grow, and what it held at the previous check must
     still be there. *)
  (if Types.equal_role role Types.Leader then begin
     (match tr.leader_mark with
     | Some (lt, li, ltm) when lt = term ->
         let last = v.last_index () in
         if last < li then
           fail t ~invariant:"leader-append-only" ~node:v.id ~term
             "leader's log shrank from %d to %d entries within term %d" li
             last term;
         if li > v.snapshot_index () then (
           match v.term_at li with
           | Some tm when tm = ltm -> ()
           | Some tm ->
               fail t ~invariant:"leader-append-only" ~node:v.id ~term
                 "leader overwrote its own entry at %d (term %d -> %d)" li
                 ltm tm
           | None ->
               fail t ~invariant:"leader-append-only" ~node:v.id ~term
                 "leader's entry at %d disappeared" li)
     | Some _ | None -> ());
     let li = v.last_index () in
     let ltm = Option.value ~default:0 (v.term_at li) in
     tr.leader_mark <- Some (term, li, ltm)
   end
   else tr.leader_mark <- None);
  (* Learners replicate but hold no electoral power: one must never
     lead or campaign, and no candidate may count a learner's vote. *)
  let learners = v.learners () in
  if List.exists (Node_id.equal v.id) learners then begin
    match role with
    | Types.Leader | Types.Candidate | Types.Pre_candidate ->
        fail t ~invariant:"learner-no-vote" ~node:v.id ~term
          "learner %a is campaigning or leading (role %s)" Node_id.pp v.id
          (Types.show_role role)
    | Types.Follower -> ()
  end;
  List.iter
    (fun voter ->
      if List.exists (Node_id.equal voter) learners then
        fail t ~invariant:"learner-no-vote" ~node:v.id ~term
          "candidate %a counted a vote from learner %a" Node_id.pp v.id
          Node_id.pp voter)
    (v.votes ());
  (* Single-server changes only: a leader may carry at most one
     uncommitted Config entry in its log tail. *)
  if Types.equal_role role Types.Leader then begin
    let commit = v.commit_index () in
    let last = v.last_index () in
    let pending = ref 0 in
    for i = commit + 1 to last do
      match v.entry_at i with
      | Some { Log.command = Log.Config _; _ } -> incr pending
      | Some _ | None -> ()
    done;
    if !pending > 1 then
      fail t ~invariant:"single-pending-config" ~node:v.id ~term
        "leader holds %d uncommitted config entries (commit %d, last %d)"
        !pending commit last
  end;
  (* Register fresh commits, then — on a transition into leadership —
     check the new leader holds everything committed so far. *)
  scan_commits t tr;
  if
    Types.equal_role role Types.Leader
    && (not (Types.equal_role tr.prev_role Types.Leader))
    && term >= max_term
  then leader_completeness t tr;
  tr.prev_term <- term;
  tr.prev_commit <- v.commit_index ();
  tr.prev_role <- role;
  tr.prev_vote <- v.voted_for ()

(* At most one live leader per term, from current states (covers toy
   fixtures with no probe stream; the probe registry covers history). *)
let check_concurrent_leaders t =
  let leaders = Hashtbl.create 8 in
  Array.iter
    (fun tr ->
      let v = tr.view in
      if v.alive () && Types.equal_role (v.role ()) Types.Leader then begin
        let term = v.term () in
        match Hashtbl.find_opt leaders term with
        | Some other when not (Node_id.equal other v.id) ->
            fail t ~invariant:"election-safety" ~node:v.id ~term
              "two concurrent leaders in term %d: %a and %a" term Node_id.pp
              other Node_id.pp v.id
        | Some _ | None -> Hashtbl.replace leaders term v.id
      end)
    t.nodes

let cheap_check t =
  t.checks <- t.checks + 1;
  let max_term = global_max_term t in
  Array.iter (check_node t ~max_term) t.nodes;
  check_concurrent_leaders t

(* {2 Deep checks: pairwise Log Matching} *)

(* If two logs agree on the term at some index, they must be identical
   at every index up to and including it. *)
let log_matching t a b =
  let va = a.view and vb = b.view in
  let lo = 1 + Stdlib.max (va.snapshot_index ()) (vb.snapshot_index ()) in
  let hi = Stdlib.min (va.last_index ()) (vb.last_index ()) in
  let rec top_match i =
    if i < lo then None
    else
      match (va.term_at i, vb.term_at i) with
      | Some ta, Some tb when ta = tb -> Some i
      | _ -> top_match (i - 1)
  in
  match top_match hi with
  | None -> ()
  | Some m ->
      for i = lo to m do
        match (va.entry_at i, vb.entry_at i) with
        | Some ea, Some eb when Log.equal_entry ea eb -> ()
        | Some ea, Some eb ->
            fail t ~invariant:"log-matching" ~node:va.id ~term:(va.term ())
              "logs of %a and %a agree at index %d (term %d) but diverge at \
               %d: %s vs %s"
              Node_id.pp va.id Node_id.pp vb.id m
              (Option.value ~default:0 (va.term_at m))
              i (Log.show_entry ea) (Log.show_entry eb)
        | _ ->
            fail t ~invariant:"log-matching" ~node:va.id ~term:(va.term ())
              "logs of %a and %a agree at index %d but an entry below it is \
               missing at %d"
              Node_id.pp va.id Node_id.pp vb.id m i
      done

(* {2 Deep checks: configuration history} *)

(* Replay the committed Config entries, in index order, on top of the
   initial membership.  Each step must be a valid single-server change
   (config-validity), and every voter-set transition must leave the old
   and new quorums overlapping (config-overlap) — the property that
   makes applied-on-append reconfiguration safe. *)
let config_history t =
  if t.initial_voters <> [] then begin
    let module S = Node_id.Set in
    let changes =
      Hashtbl.fold
        (fun i (tm, cmd) acc ->
          match cmd with
          | Log.Config c -> (i, tm, c) :: acc
          | Log.Noop | Log.Data _ -> acc)
        t.committed []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    in
    let overlap ~index ~term v1 v2 =
      let q s = (S.cardinal s / 2) + 1 in
      let union = S.cardinal (S.union v1 v2) in
      if q v1 + q v2 <= union then
        fail t ~invariant:"config-overlap" ~term
          "quorums of consecutive configs at index %d do not overlap \
           (|V1|=%d |V2|=%d |V1∪V2|=%d)"
          index (S.cardinal v1) (S.cardinal v2) union
    in
    ignore
      (List.fold_left
         (fun (voters, learners) (index, term, change) ->
           match change with
           | Log.Add_learner id ->
               if S.mem id voters || S.mem id learners then
                 fail t ~invariant:"config-validity" ~node:id ~term
                   "Add_learner at index %d names an existing member" index;
               (voters, S.add id learners)
           | Log.Promote id ->
               if not (S.mem id learners) then
                 fail t ~invariant:"config-validity" ~node:id ~term
                   "Promote at index %d names a non-learner" index;
               let voters' = S.add id voters in
               overlap ~index ~term voters voters';
               (voters', S.remove id learners)
           | Log.Remove id ->
               if S.mem id voters then begin
                 if S.cardinal voters <= 1 then
                   fail t ~invariant:"config-validity" ~node:id ~term
                     "Remove at index %d deletes the last voter" index;
                 let voters' = S.remove id voters in
                 overlap ~index ~term voters voters';
                 (voters', learners)
               end
               else if S.mem id learners then (voters, S.remove id learners)
               else
                 fail t ~invariant:"config-validity" ~node:id ~term
                   "Remove at index %d names a non-member" index)
         (S.of_list t.initial_voters, S.empty)
         changes
        : S.t * S.t)
  end

let deep_check t =
  let n = Array.length t.nodes in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      log_matching t t.nodes.(i) t.nodes.(j)
    done
  done;
  config_history t;
  (* Re-assert completeness for the authoritative leader — live and at
     the globally highest term — so commits registered since its
     election are covered too.  Stale leaders (paused or partitioned
     while a successor commits) are legitimately incomplete. *)
  let max_term = global_max_term t in
  Array.iter
    (fun tr ->
      if
        tr.view.alive ()
        && Types.equal_role (tr.view.role ()) Types.Leader
        && tr.view.term () >= max_term
      then leader_completeness t tr)
    t.nodes

(* {2 Entry points} *)

let step t =
  match t.mode with
  | Off -> ()
  | Sample | Always ->
      t.events <- t.events + 1;
      if t.events mod cheap_every t.mode = 0 then cheap_check t;
      if t.events mod deep_every t.mode = 0 then deep_check t

let check_now t =
  if t.mode <> Off then begin
    cheap_check t;
    deep_check t
  end
