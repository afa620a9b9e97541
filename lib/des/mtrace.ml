type 'a entry = { at : Time.t; cause : int; parent : int; ev : 'a }

type 'a t = {
  engine : Engine.t;
  capacity : int; (* max_int when unbounded *)
  mutable events : 'a entry list; (* newest first *)
  mutable len : int; (* physical length of [events] *)
  mutable total : int; (* lifetime emits since creation / last clear *)
  mutable observers : ('a entry -> unit) list;
}

let create ?capacity engine =
  let capacity =
    match capacity with
    | None -> max_int
    | Some c ->
        if c <= 0 then invalid_arg "Mtrace.create: capacity must be positive";
        c
  in
  { engine; capacity; events = []; len = 0; total = 0; observers = [] }

(* First [n] elements of a newest-first list, reversed — i.e. the newest
   [n] events in oldest-first order.  Tail-recursive: traces from long
   campaigns overflow the stack under plain [List.rev]. *)
let newest_rev n events =
  let rec go n acc = function
    | [] -> acc
    | _ when n = 0 -> acc
    | hd :: tl -> go (n - 1) (hd :: acc) tl
  in
  go n [] events

(* Eviction is amortized: entries beyond [capacity] are logically dropped
   immediately (readers never see them) but physically trimmed only when
   the backlog doubles, so [emit] stays O(1) amortized instead of O(cap)
   per call. *)
let emit t ~cause ~parent ev =
  let e = { at = Engine.now t.engine; cause; parent; ev } in
  t.events <- e :: t.events;
  t.len <- t.len + 1;
  t.total <- t.total + 1;
  if t.len > 2 * t.capacity && t.capacity < max_int then begin
    t.events <- List.rev (newest_rev t.capacity t.events);
    t.len <- t.capacity
  end;
  List.iter (fun f -> f e) t.observers

let length t = if t.len < t.capacity then t.len else t.capacity
let dropped t = t.total - length t
let events t = newest_rev (length t) t.events
let tail t n = newest_rev (Stdlib.min n (length t)) t.events
let iter t ~f = List.iter f (events t)

let find_first t ~after ~f =
  List.find_opt (fun e -> e.at > after && f e.ev) (events t)

let clear t =
  t.events <- [];
  t.len <- 0;
  t.total <- 0

let subscribe t f = t.observers <- t.observers @ [ f ]
