(* Replay loops for layer functions the benchmark cannot wrap from
   outside: they run deep inside the simulation.  Each loop calls the
   layer's public function on inputs shaped like the run's (the client's
   key and value shape, a store of the run's key count, a tuner fed
   heartbeats at the run's RTT, a summary at the run's sample count) and
   times it; the report multiplies the cost per call by the run's own
   call count.  These are estimates to set beside the profiler's
   self-shares, not measurements of the run itself. *)

let now = Spans.now

let batches = 5

(* Median ns per call over [batches] timed batches of [iters] calls. *)
let ns_per_call ~iters f =
  let t =
    Array.init batches (fun _ ->
        let t0 = now () in
        for i = 0 to iters - 1 do
          f i
        done;
        (now () -. t0) *. 1e9 /. float_of_int iters)
  in
  Array.sort Float.compare t;
  t.(batches / 2)

(* The client's request shape: [Kvsm.Client] puts a 64-byte value under
   one of 1024 keys per client. *)
let key i = Printf.sprintf "c%d-k%d" (1 + (i land 7)) (i land 1023)
let keys = Array.init 8192 key
let value = String.make 64 'v'
let put i = Kvsm.Command.Put { key = keys.(i land 8191); value }
let commands = Array.init 8192 put
let payloads = Array.map Kvsm.Command.to_payload commands

let encode_ns () =
  ns_per_call ~iters:200_000 (fun i ->
      ignore (Kvsm.Command.to_payload commands.(i land 8191) : string))

let decode_ns () =
  ns_per_call ~iters:200_000 (fun i ->
      ignore
        (Kvsm.Command.of_payload payloads.(i land 8191)
          : (Kvsm.Command.t, string) result))

let apply_ns () =
  let store = Kvsm.Store.create () in
  Array.iter
    (fun c -> ignore (Kvsm.Store.apply_command store c : Kvsm.Store.result))
    commands;
  ns_per_call ~iters:200_000 (fun i ->
      ignore
        (Kvsm.Store.apply_command store commands.(i land 8191)
          : Kvsm.Store.result))

(* A warmed tuner fed one heartbeat per call with a jittered RTT. *)
let observe_ns ~rtt_ms =
  let tuner = Dynatune.Tuner.create Dynatune.Config.default in
  let rtt i =
    Des.Time.of_ms_f (rtt_ms *. (1. +. (0.02 *. float_of_int ((i * 7919) mod 21 - 10) /. 10.)))
  in
  for i = 0 to 999 do
    Dynatune.Tuner.observe_heartbeat tuner ~hb_id:i ~rtt:(Some (rtt i))
  done;
  ns_per_call ~iters:200_000 (fun i ->
      Dynatune.Tuner.observe_heartbeat tuner ~hb_id:(1000 + i)
        ~rtt:(Some (rtt i)))

(* [latencies] is the run's summary; its order statistics are the input. *)
let summary_ns latencies =
  let n = Stats.Summary.count latencies in
  let l = List.map fst (Stats.Summary.cdf latencies ~points:n) in
  ns_per_call ~iters:20 (fun _ ->
      ignore (Stats.Summary.of_list l : Stats.Summary.t))

let route_ns ~groups =
  ns_per_call ~iters:200_000 (fun i ->
      ignore (Multiraft.Router.shard_of_key ~groups keys.(i land 8191) : int))
