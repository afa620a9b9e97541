type submit_result = [ `Accepted | `Not_leader of Netsim.Node_id.t option ]

type target =
  payload:string ->
  client_id:int ->
  seq:int ->
  on_result:(committed:bool -> unit) ->
  submit_result

type t = {
  engine : Des.Engine.t;
  target : target;
  client_id : int;
  rate : float;
  value : string;
  client_rtt : Des.Time.span;
  route : (Netsim.Node_id.t -> target) option;
  max_redirects : int;
  redirect_backoff : Des.Time.span;
  rng : Stats.Rng.t;
  mutable running : bool;
  mutable seq : int;
  mutable offered : int;
  mutable completed : int;
  mutable rejected : int;
  mutable redirected : int;
  mutable abandoned : int;
  mutable latencies : float list; (* ms, newest first *)
}

let create ~engine ~target ~client_id ~rate ?(value_size = 64)
    ?(client_rtt = 0) ?route ?(max_redirects = 3)
    ?(redirect_backoff = Des.Time.ms 1) () =
  if rate <= 0. then invalid_arg "Client.create: rate must be positive";
  if max_redirects < 0 then
    invalid_arg "Client.create: max_redirects must be non-negative";
  {
    engine;
    target;
    client_id;
    rate;
    value = String.make value_size 'v';
    client_rtt;
    route;
    max_redirects;
    redirect_backoff;
    rng =
      Stats.Rng.split_int
        (Stats.Rng.split (Des.Engine.rng engine) "kv-client")
        client_id;
    running = false;
    seq = 0;
    offered = 0;
    completed = 0;
    rejected = 0;
    redirected = 0;
    abandoned = 0;
    latencies = [];
  }

let issue t =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.offered <- t.offered + 1;
  let key = Printf.sprintf "c%d-k%d" t.client_id (seq mod 1024) in
  let payload =
    Command.to_payload (Command.Put { key; value = t.value })
  in
  let sent_at = Des.Engine.now t.engine in
  let on_result ~committed =
    if committed then begin
      t.completed <- t.completed + 1;
      (* Latency runs from the {e first} send, so redirect hops are
         charged to the request that needed them. *)
      let elapsed =
        Des.Time.diff (Des.Engine.now t.engine) sent_at + t.client_rtt
      in
      t.latencies <- Des.Time.to_ms_f elapsed :: t.latencies
    end
    else t.rejected <- t.rejected + 1
  in
  let rec attempt ~via ~hops =
    match via ~payload ~client_id:t.client_id ~seq ~on_result with
    | `Accepted -> ()
    | `Not_leader hint -> (
        t.redirected <- t.redirected + 1;
        match (t.route, hint) with
        | Some route, Some next when hops < t.max_redirects ->
            ignore
              (Des.Engine.schedule_after t.engine t.redirect_backoff
                 Des.Engine.thunk
                 (fun () -> attempt ~via:(route next) ~hops:(hops + 1))
                 () 0
                : Des.Engine.handle)
        | _ -> t.abandoned <- t.abandoned + 1)
  in
  attempt ~via:t.target ~hops:0

let rec schedule_next t =
  let gap = Stats.Dist.exponential t.rng ~rate:t.rate in
  ignore
    (Des.Engine.schedule_after t.engine (Des.Time.of_sec_f gap) Des.Engine.thunk
       (fun () ->
         if t.running then begin
           issue t;
           schedule_next t
         end)
       () 0
      : Des.Engine.handle)

let start t =
  if not t.running then begin
    t.running <- true;
    schedule_next t
  end

let stop t = t.running <- false
let offered t = t.offered
let completed t = t.completed
let rejected t = t.rejected
let redirected t = t.redirected
let abandoned t = t.abandoned
let latencies_ms t = List.rev t.latencies
