(** The figure table: every reproduced figure by name, with its quick-
    and paper-scale parameters.  [bench/main.exe] and [dynatune_sim
    figure] both run from it, so a name means the same run, and prints
    the same numbers, in either. *)

type scale = {
  full : bool;  (** paper-scale parameters instead of the quick ones *)
  jobs : int;  (** campaign parallelism ({!Parallel.Campaign}) *)
}

val table : (string * (scale -> Format.formatter -> unit)) list
(** In run order: fig4, fig5, fig5sat, fig6a, fig6b, fig7, fig8,
    ablation, reconfig, extensions, multiraft. *)
