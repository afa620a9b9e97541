type counters = {
  sent : int;
  delivered : int;
  lost : int;
  dropped_paused : int;
  duplicated : int;
}

type 'msg node_state = {
  mutable handler : (src:Node_id.t -> 'msg -> unit) option;
  mutable paused : bool;
  mutable congestion : Congestion.t option;
  mutable alive : bool;
      (* cleared by [remove_node]; in-flight deliveries that still hold
         a port to this node check it and count as dropped *)
}

(* Egress scheduling state for one directed link, allocated only when a
   serialization delay is configured.  Two FIFO lanes: urgent messages
   depart before anything queued in the bulk lane; within a lane, send
   order (the engine's sequence order) breaks ties, so the schedule is a
   pure function of the send sequence. *)
type 'msg egress = {
  mutable busy : bool;  (* a message currently occupies the wire *)
  eg_urgent : (Transport.kind * int * int * 'msg) Queue.t;
      (* (kind, units, cause, msg); cause is 0 unless tracking is on *)
  eg_bulk : (Transport.kind * int * int * 'msg) Queue.t;
  mutable depth_high_water : int;
}

type 'msg t = {
  engine : Des.Engine.t;
  rng : Stats.Rng.t;
  nodes : 'msg node_state Node_id.Table.t;
  mutable node_order : Node_id.t list; (* registration order *)
  (* Directed-pair tables are keyed by [key src dst], a single int:
     a tuple key would be allocated afresh (and polymorphically hashed)
     on every message send.  [links]/[channels]/[egresses]/
     [serialization] remain the canonical configuration stores (they
     survive port invalidation); [ports] caches everything the send hot
     path needs behind a single allocation-free lookup. *)
  links : (int, Link.t) Hashtbl.t;
  channels : (int, Transport.Channel.t) Hashtbl.t;
  egresses : (int, 'msg egress) Hashtbl.t;
  serialization : (int, Des.Time.span) Hashtbl.t;
  ports : 'msg port Itab.t;
  mutable default_serialization : Des.Time.span;  (* 0 = wire never busy *)
  mutable default_conditions : Conditions.t;
  mutable groups : int Node_id.Table.t option;  (* node -> partition group *)
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped_paused : int;
  mutable duplicated : int;
  (* Causal piggyback channel (the forensics layer).  Causes are opaque
     int tokens: a sender stages one just before [send], the fabric
     carries it alongside the message, and the receiver reads the token
     back during its delivery handler.  All three fields are immediate
     ints and every use is branch-guarded on [track_causes], so the
     default path allocates and behaves byte-identically to a fabric
     without the channel. *)
  mutable track_causes : bool;
  mutable staged_cause : int;  (* consumed by the next [send] *)
  mutable last_cause : int;  (* cause of the delivery in progress *)
  mutable dup_clone : 'msg -> 'msg;
      (* applied to the second copy of a duplicated datagram; identity
         unless the host pools messages (a pooled payload must not be
         shared between two in-flight deliveries — the first delivery's
         release could recycle it under the second) *)
}

(* Everything one directed src -> dst message needs, resolved once and
   cached: the send hot path does a single [Itab.find] and then touches
   only record fields.  Ports are dropped when either endpoint leaves
   the fabric ([remove_node]), so a found port's states are current. *)
and 'msg port = {
  pt_fabric : 'msg t;
  pt_src : Node_id.t;
  pt_dst : Node_id.t;
  pt_link : Link.t;
  pt_channel : Transport.Channel.t;
  pt_src_state : 'msg node_state;
  pt_dst_state : 'msg node_state;
  mutable pt_serialization : Des.Time.span;
  mutable pt_egress : 'msg egress option;
}

let[@inline] deliver_port t port msg =
  let st = port.pt_dst_state in
  if (not st.alive) || st.paused then
    t.dropped_paused <- t.dropped_paused + 1
  else
    match st.handler with
    | None -> t.dropped_paused <- t.dropped_paused + 1
    | Some handler ->
        t.delivered <- t.delivered + 1;
        handler ~src:port.pt_src msg

(* The delivery event's handler: the port and message are its operands
   and the int carries the causal token ([cause = 0] is the untracked
   case), so scheduling a delivery allocates nothing. *)
let dispatch_deliver port msg cause =
  let t = port.pt_fabric in
  if cause = 0 then deliver_port t port msg
  else begin
    t.last_cause <- cause;
    deliver_port t port msg;
    t.last_cause <- 0
  end

let create engine =
  {
    engine;
    rng = Stats.Rng.split (Des.Engine.rng engine) "fabric";
    nodes = Node_id.Table.create 16;
    node_order = [];
    links = Hashtbl.create 64;
    channels = Hashtbl.create 64;
    egresses = Hashtbl.create 64;
    serialization = Hashtbl.create 64;
    ports = Itab.create 64;
    default_serialization = 0;
    default_conditions = Conditions.(constant (profile ~rtt_ms:0. ()));
    groups = None;
    sent = 0;
    delivered = 0;
    lost = 0;
    dropped_paused = 0;
    duplicated = 0;
    track_causes = false;
    staged_cause = 0;
    last_cause = 0;
    dup_clone = (fun msg -> msg);
  }

let engine t = t.engine
let enable_cause_tracking t = t.track_causes <- true
let set_dup_clone t clone = t.dup_clone <- clone

let stage_cause t cause =
  if t.track_causes then t.staged_cause <- cause

let delivery_cause t = t.last_cause

let add_node t id =
  if Node_id.to_int id < 0 || Node_id.to_int id > 0xFFFFF then
    invalid_arg "Fabric.add_node: node id out of range";
  if Node_id.Table.mem t.nodes id then
    invalid_arg "Fabric.add_node: duplicate node id";
  Node_id.Table.add t.nodes id
    { handler = None; paused = false; congestion = None; alive = true };
  t.node_order <- t.node_order @ [ id ]

let nodes t = t.node_order

let remove_node t id =
  match Node_id.Table.find_opt t.nodes id with
  | None -> invalid_arg "Fabric.remove_node: unknown node id"
  | Some st ->
      st.alive <- false;
      Node_id.Table.remove t.nodes id;
      t.node_order <-
        List.filter (fun n -> not (Node_id.equal n id)) t.node_order;
      let touches k =
        let i = Node_id.to_int id in
        k lsr 20 = i || k land 0xFFFFF = i
      in
      Itab.filter t.ports (fun k _ -> not (touches k));
      let drop table =
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) table [] in
        List.iter (fun k -> if touches k then Hashtbl.remove table k) keys
      in
      drop t.links;
      drop t.channels;
      drop t.egresses;
      drop t.serialization;
      (match t.groups with
      | Some table -> Node_id.Table.remove table id
      | None -> ())

let state t id =
  match Node_id.Table.find_opt t.nodes id with
  | Some s -> s
  | None -> invalid_arg "Fabric: unknown node id"

let set_handler t id handler = (state t id).handler <- Some handler

(* Node ids are small non-negative ints, so a directed pair packs into
   one immediate int. *)
let key src dst = (Node_id.to_int src lsl 20) lor Node_id.to_int dst

let link t ~src ~dst =
  let k = key src dst in
  match Hashtbl.find_opt t.links k with
  | Some l -> l
  | None ->
      let name = Printf.sprintf "link-%d-%d" (k lsr 20) (k land 0xFFFFF) in
      let l =
        Link.create t.engine
          ~rng:(Stats.Rng.split t.rng name)
          t.default_conditions
      in
      Hashtbl.add t.links k l;
      l

let set_conditions t ~src ~dst conditions =
  Link.set_conditions (link t ~src ~dst) conditions

let set_pair_conditions t a b conditions =
  set_conditions t ~src:a ~dst:b conditions;
  set_conditions t ~src:b ~dst:a conditions

let set_uniform_conditions t conditions =
  t.default_conditions <- conditions;
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Node_id.equal src dst) then
            set_conditions t ~src ~dst conditions)
        t.node_order)
    t.node_order

let channel t src dst =
  let k = key src dst in
  match Hashtbl.find_opt t.channels k with
  | Some c -> c
  | None ->
      let c = Transport.Channel.create () in
      Hashtbl.add t.channels k c;
      c

(* Tolerant of unknown destinations: a message in flight toward a node
   that [remove_node] has since deleted counts as dropped, not an
   error.  Only self-sends take this path; everything else delivers
   through a port. *)
let deliver t ~src ~dst msg =
  match Node_id.Table.find_opt t.nodes dst with
  | None -> t.dropped_paused <- t.dropped_paused + 1
  | Some st -> (
      if st.paused then t.dropped_paused <- t.dropped_paused + 1
      else
        match st.handler with
        | None -> t.dropped_paused <- t.dropped_paused + 1
        | Some handler ->
            t.delivered <- t.delivered + 1;
            handler ~src msg)

let set_egress_congestion t id spec =
  let rng =
    Stats.Rng.split_int
      (Stats.Rng.split t.rng "congestion")
      (Node_id.to_int id)
  in
  (state t id).congestion <- Some (Congestion.create ~rng spec)

let set_all_egress_congestion t spec =
  List.iter (fun id -> set_egress_congestion t id spec) t.node_order

let partition t groups =
  let table = Node_id.Table.create 16 in
  List.iteri
    (fun group ids ->
      List.iter
        (fun id ->
          ignore (state t id : _ node_state);
          if Node_id.Table.mem table id then
            invalid_arg "Fabric.partition: node appears in two groups";
          Node_id.Table.add table id group)
        ids)
    groups;
  (* Unmentioned nodes share an implicit extra group. *)
  let extra = List.length groups in
  List.iter
    (fun id ->
      if not (Node_id.Table.mem table id) then
        Node_id.Table.add table id extra)
    t.node_order;
  t.groups <- Some table

let heal_partition t = t.groups <- None

let reachable t src dst =
  match t.groups with
  | None -> true
  | Some table ->
      Node_id.equal src dst
      || Node_id.Table.find_opt table src = Node_id.Table.find_opt table dst

let serialization_of t k =
  match Hashtbl.find_opt t.serialization k with
  | Some s -> s
  | None -> t.default_serialization

let egress_of t k =
  match Hashtbl.find_opt t.egresses k with
  | Some eg -> eg
  | None ->
      let eg =
        {
          busy = false;
          eg_urgent = Queue.create ();
          eg_bulk = Queue.create ();
          depth_high_water = 0;
        }
      in
      Hashtbl.add t.egresses k eg;
      eg

(* Build and cache the port for a directed pair; both endpoints must be
   registered.  Creation order is digest-irrelevant — [Stats.Rng.split]
   is pure, so when a link is created does not affect any draw
   sequence. *)
let make_port t ~src ~dst k =
  let src_state = state t src in
  let dst_state = state t dst in
  let ser = serialization_of t k in
  let p =
    {
      pt_fabric = t;
      pt_src = src;
      pt_dst = dst;
      pt_link = link t ~src ~dst;
      pt_channel = channel t src dst;
      pt_src_state = src_state;
      pt_dst_state = dst_state;
      pt_serialization = ser;
      pt_egress = (if ser > 0 then Some (egress_of t k) else None);
    }
  in
  Itab.add t.ports k p;
  p

let set_serialization t ~src ~dst span =
  if span < 0 then invalid_arg "Fabric.set_serialization: negative span";
  let k = key src dst in
  Hashtbl.replace t.serialization k span;
  match Itab.find t.ports k with
  | None -> ()
  | Some p ->
      p.pt_serialization <- span;
      if span > 0 then
        match p.pt_egress with
        | Some _ -> ()
        | None -> p.pt_egress <- Some (egress_of t k)

let set_uniform_serialization t span =
  if span < 0 then invalid_arg "Fabric.set_uniform_serialization: negative span";
  t.default_serialization <- span;
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Node_id.equal src dst) then set_serialization t ~src ~dst span)
        t.node_order)
    t.node_order

(* Put one message on the (now free) wire: sample the link model and
   schedule its delivery with [dispatch_deliver] as the handler.  This is
   the entire send path when no serialization delay is configured, and
   the wire-free continuation when one is.  Allocation-free for
   datagrams (the dominant kind): packed link sample, pooled event,
   int-carried cause. *)
let[@hot] transmit_port t p kind ~cause msg =
  let extra =
    match p.pt_src_state.congestion with
    | None -> 0
    | Some c -> Congestion.extra_delay c ~now:(Des.Engine.now t.engine)
  in
  match kind with
  | Transport.Datagram ->
      let d1 = Link.sample_datagram_packed p.pt_link in
      if d1 < 0 then t.lost <- t.lost + 1
      else begin
        let d2 = Link.dup_latency p.pt_link in
        ignore
          (Des.Engine.schedule_after t.engine (d1 + extra) dispatch_deliver p
             msg cause
            : Des.Engine.handle);
        if d2 >= 0 then begin
          t.duplicated <- t.duplicated + 1;
          ignore
            (Des.Engine.schedule_after t.engine (d2 + extra) dispatch_deliver p
               (t.dup_clone msg) cause
              : Des.Engine.handle)
        end
      end
  | Transport.Reliable ->
      let latency = Link.sample_reliable p.pt_link + extra in
      let now = Des.Engine.now t.engine in
      let at = Transport.Channel.delivery_time p.pt_channel ~now ~latency in
      ignore
        (Des.Engine.schedule_at t.engine at dispatch_deliver p msg cause
          : Des.Engine.handle)

let egress_depth eg =
  Queue.length eg.eg_urgent + Queue.length eg.eg_bulk
  + if eg.busy then 1 else 0

(* Drain the egress: urgent lane first, then bulk, FIFO within each —
   deterministic because sends on one link happen in engine sequence
   order.  Each message occupies the wire for [units x serialization]
   before the link's propagation model takes over.  The wire-done event
   carries the port and the already-queued item as its operands, so a
   serialized message allocates no continuation. *)
let[@hot] rec pump t p eg =
  let lane = if Queue.is_empty eg.eg_urgent then eg.eg_bulk else eg.eg_urgent in
  if Queue.is_empty lane then eg.busy <- false
  else begin
    let ((_, units, _, _) as item) = Queue.pop lane in
    eg.busy <- true;
    ignore
      (Des.Engine.schedule_after t.engine (units * p.pt_serialization)
         wire_done p item 0
        : Des.Engine.handle)
  end

(* The port's egress is set once, before its first [pump], and never
   replaced, so it is the [eg] this message was popped from. *)
and[@hot] wire_done p (kind, _, cause, msg) (_ : int) =
  let t = p.pt_fabric in
  transmit_port t p kind ~cause msg;
  match p.pt_egress with Some eg -> pump t p eg | None -> ()

(* Route one message through a resolved port: free wire -> transmit now;
   serialized wire -> queue on the egress. *)
let[@hot] send_port t p kind lane units ~cause msg =
  if p.pt_serialization <= 0 then transmit_port t p kind ~cause msg
  else begin
    let eg =
      match p.pt_egress with
      | Some eg -> eg
      | None ->
          (* Serialization was configured before this port existed. *)
          let eg = egress_of t (key p.pt_src p.pt_dst) in
          p.pt_egress <- Some eg;
          eg
    in
    (match lane with
    | Transport.Urgent -> Queue.push (kind, units, cause, msg) eg.eg_urgent
    | Transport.Bulk -> Queue.push (kind, units, cause, msg) eg.eg_bulk);
    let depth = egress_depth eg in
    if depth > eg.depth_high_water then eg.depth_high_water <- depth;
    if not eg.busy then pump t p eg
  end

let[@hot] send t kind ?(lane = Transport.Urgent) ?(units = 1) ~src ~dst msg =
  t.sent <- t.sent + 1;
  (* The staged cause is one-shot: whatever happens to this message
     (delivered, lost, queued), the next send starts clean. *)
  let cause = t.staged_cause in
  if cause <> 0 then t.staged_cause <- 0;
  if Node_id.equal src dst then
    if cause = 0 then deliver t ~src ~dst msg
    else begin
      t.last_cause <- cause;
      deliver t ~src ~dst msg;
      t.last_cause <- 0
    end
  else
    let k = key src dst in
    match Itab.find t.ports k with
    | Some p ->
        (* A cached port implies both endpoints are registered. *)
        if not (reachable t src dst) then t.lost <- t.lost + 1
        else send_port t p kind lane units ~cause msg
    | None ->
        if not (Node_id.Table.mem t.nodes dst) then
          (* Destination left the fabric: the message vanishes into a
             closed port. *)
          t.lost <- t.lost + 1
        else if not (reachable t src dst) then t.lost <- t.lost + 1
        else send_port t (make_port t ~src ~dst k) kind lane units ~cause msg

let pending t ~src ~dst =
  match Hashtbl.find_opt t.egresses (key src dst) with
  | None -> 0
  | Some eg -> egress_depth eg

let link_queue_depths t =
  Hashtbl.fold
    (fun k eg acc ->
      ((k lsr 20, k land 0xFFFFF), eg.depth_high_water) :: acc)
    t.egresses []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)

let pause t id = (state t id).paused <- true
let resume t id = (state t id).paused <- false
let is_paused t id = (state t id).paused

let counters t =
  {
    sent = t.sent;
    delivered = t.delivered;
    lost = t.lost;
    dropped_paused = t.dropped_paused;
    duplicated = t.duplicated;
  }

let link_counters t =
  Hashtbl.fold
    (fun k l acc -> ((k lsr 20, k land 0xFFFFF), Link.counters l) :: acc)
    t.links []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
