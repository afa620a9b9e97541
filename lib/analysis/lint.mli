(** The determinism contract's local rules over [lib/] (DESIGN.md §12.2).

    Seven banned-identifier rules — [wall-clock], [global-rng],
    [obj-magic], [poly-compare], [direct-print], [stdlib-exit],
    [raw-fabric-send] — read the call graph's references; a bare name
    bound by a pattern of the same binding is a local and never fires.
    [mutable-global] flags top-level allocations of mutable state in
    [lib/raft]; [hot-alloc] holds [@hot]-marked bindings to the
    allocation discipline (no allocating list/array combinators, no
    [Printf]/[Format], no lambda below the binding's parameter chain). *)

val rules : (string * string) list
(** [(rule-id, one-line doc)] for the nine rules. *)

val findings : Callgraph.t -> Source.t list -> Finding.t list
