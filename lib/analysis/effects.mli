(** Interprocedural effect-taint rule ([effect-taint]).

    Walks the call graph forward from every value defined under the
    entry directories and reports each reached value that directly
    references a banned ambient effect — wall clock, global [Random],
    ambient [Sys], ambient I/O — with the full call chain as evidence. *)

val rule : string

val wall_clock : string list -> bool
(** [Unix.gettimeofday], [Unix.time], [Sys.time]. *)

val global_random : string list -> bool
(** Anything under the global [Random] module. *)

val ambient_print : string list -> bool
(** Printing to the process's stdout/stderr: [print_*]/[prerr_*],
    [Printf.(e)printf], [Format.(e)printf] and the standard formatters. *)

val classify : string list -> string option
(** [Some category] when the flattened identifier is a banned effect:
    any of the three predicates above, ambient [Unix]/[Sys], or ambient
    channel I/O.  A leading [Stdlib.] is ignored throughout. *)

val findings : entry_dirs:string list -> Callgraph.t -> Finding.t list
