(** The causal-tracking switch and its cause counter.

    One switch serves a whole cluster (like the probe trace).  Handed to
    every node, it turns on causal stamping: each timer fire, client
    request and injected fault mints a fresh {!Cause.t}, and every probe
    enters the cluster trace stamped with the cause of the event being
    processed and, where known, that cause's parent (see
    [Raft.Node.create]).  That stamped trace feeds the [explain] CLI and
    the flight recorder; this module stores nothing.

    Contract mirrors {!Metrics}: {!noop} (and [create ~enabled:false])
    never mutates shared state, and callers gate their instrumentation
    on {!enabled} so the disabled path stays allocation-free.  Sequence
    numbers are drawn in DES event order, so for a fixed seed the
    stamped trace is identical run to run. *)

type t

val create : ?enabled:bool -> unit -> t
(** A fresh switch, on unless [enabled] is [false]. *)

val noop : t
(** A shared disabled switch, safe across campaign domains. *)

val enabled : t -> bool

val new_cause : t -> kind:Cause.kind -> node:int -> term:int -> Cause.t
(** Allocate a fresh cause (next sequence number of this switch).
    Returns {!Cause.none} on a disabled switch. *)
