(* Open-loop KV ladder with drained accounting.

   Each level runs a fresh [Kvsm.Client] (Poisson arrivals on the
   simulated clock, so the generator is never late) for [hold], stops
   it, then keeps the engine running until every request issued during
   the level has resolved or [drain_limit] has passed.  Only then is the
   level counted: a request is committed or it is failed, never "still
   in flight".  [Kvsm.Workload.run_ramp] closes its books at the end of
   the hold instead, so requests in flight at that instant read as
   missing and even an idle service looks saturated.

   The target wrapper counts submit calls, [`Not_leader] replies and
   accepted-but-unresolved requests (the backlog), and in the traced
   run times each submit and commit callback. *)

type level = {
  rate : float;  (* offered, req/s *)
  offered : int;
  committed : int;
  failed : int;  (* offered - committed once drained *)
  redirects : int;
  submit_calls : int;
  backlog_max : int;
  latencies : Stats.Summary.t Lazy.t;
      (* ms from arrival; summarized on first use, after the timed
         window *)
  drain_s : float;  (* simulated drain time *)
}

(* The modeled client-to-leader round trip, added to every latency; the
   KV workloads put the same RTT on the fabric. *)
let rtt_ms = 50.
let client_rtt = Des.Time.of_ms_f rtt_ms
let hold = Des.Time.sec 1
let drain_limit = Des.Time.sec 5
let p99_limit_ms = 150.
let committed_floor = 0.99

let sustained l =
  l.offered > 0
  && float_of_int l.committed >= committed_floor *. float_of_int l.offered
  && Stats.Summary.percentile (Lazy.force l.latencies) 99. <= p99_limit_ms

(* Highest offered rate that is sustained; 0 when none is. *)
let sustained_rps levels =
  List.fold_left
    (fun acc l -> if sustained l then Float.max acc l.rate else acc)
    0. levels

type counters = {
  mutable calls : int;
  mutable not_leader : int;
  mutable backlog : int;
  mutable peak : int;
}

let wrap c (inner : Kvsm.Client.target) : Kvsm.Client.target =
 fun ~payload ~client_id ~seq ~on_result ->
  c.calls <- c.calls + 1;
  (* [on_result] may run before [inner] returns; only a request that is
     accepted and still unresolved counts towards the backlog. *)
  let accepted = ref false and resolved = ref false in
  let on_result ~committed =
    resolved := true;
    if !accepted then c.backlog <- c.backlog - 1;
    if !Spans.enabled then
      Spans.time "commit_callback" (fun () -> on_result ~committed)
    else on_result ~committed
  in
  let r =
    if !Spans.enabled then
      Spans.time "submit" (fun () -> inner ~payload ~client_id ~seq ~on_result)
    else inner ~payload ~client_id ~seq ~on_result
  in
  (match r with
  | `Accepted ->
      if not !resolved then begin
        accepted := true;
        c.backlog <- c.backlog + 1;
        if c.backlog > c.peak then c.peak <- c.backlog
      end
  | `Not_leader _ -> c.not_leader <- c.not_leader + 1);
  r

let drain_step = Des.Time.ms 10

let run_level ~engine ~target ?route ~client_id rate =
  let c = { calls = 0; not_leader = 0; backlog = 0; peak = 0 } in
  let client =
    Kvsm.Client.create ~engine ~target:(wrap c target)
      ?route:(Option.map (fun route hint -> wrap c (route hint)) route)
      ~client_id ~rate ~client_rtt ()
  in
  let outstanding () =
    Kvsm.Client.(
      offered client - completed client - rejected client - abandoned client)
  in
  Spans.time "level.hold" (fun () ->
      Kvsm.Client.start client;
      Des.Engine.run_for engine hold;
      Kvsm.Client.stop client);
  let drained_from = Des.Engine.now engine in
  Spans.time "level.drain" (fun () ->
      while
        outstanding () > 0
        && Des.Time.diff (Des.Engine.now engine) drained_from < drain_limit
      do
        Des.Engine.run_for engine drain_step
      done);
  let offered = Kvsm.Client.offered client in
  let committed = Kvsm.Client.completed client in
  let latencies = Kvsm.Client.latencies_ms client in
  {
    rate;
    offered;
    committed;
    failed = offered - committed;
    redirects = c.not_leader;
    submit_calls = c.calls;
    backlog_max = c.peak;
    latencies = lazy (Stats.Summary.of_list latencies);
    drain_s =
      Des.Time.to_sec_f (Des.Time.diff (Des.Engine.now engine) drained_from);
  }

let run_ladder ~engine ~target ?route rates =
  List.mapi
    (fun i rate -> run_level ~engine ~target ?route ~client_id:(i + 1) rate)
    rates
