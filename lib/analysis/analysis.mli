(** AST-level determinism analyzer (DESIGN.md §12).

    Parses every [.ml]/[.mli] into a Parsetree ([compiler-libs.common])
    and runs the determinism contract's rules: interprocedural effect
    taint from DES/raft/parallel entry points, cross-domain shared-state
    detection, protocol-match exhaustiveness over [[@@protocol]]-marked
    variants, and the local banned-construct rules over [lib/]
    ({!Lint}).

    The library is pure: callers ([bin/analyze.ml], selfcheck, tests)
    own file loading, printing and process exit. *)

module Finding = Finding
module Source = Source
module Callgraph = Callgraph
module Effects = Effects
module Shared_state = Shared_state
module Exhaustive = Exhaustive
module Lint = Lint
module Driver = Driver

type file = Driver.file = { path : string; content : string }

val analyze : ?config:Driver.config -> file list -> Finding.t list
val rules : (string * string) list
