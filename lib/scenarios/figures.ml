type scale = { full : bool; jobs : int }

let pick { full; _ } ~quick ~paper = if full then paper else quick
let hold s ~quick ~paper = Des.Time.sec (pick s ~quick ~paper)

let fig6 pattern s ppf =
  Fig6.print ppf pattern
    (Fig6.compare_modes ~hold:(hold s ~quick:20 ~paper:60) ~jobs:s.jobs
       ~pattern ())

let ablation s ppf =
  let failures = pick s ~quick:60 ~paper:200 in
  let quiet = hold s ~quick:60 ~paper:300 in
  let jobs = s.jobs in
  let safety = Ablation.safety_factor_sweep ~failures ~quiet ~jobs () in
  let arrival = Ablation.arrival_probability_sweep ~quiet ~jobs () in
  let sizes = Ablation.list_size_sweep ~jobs () in
  let estimators = Ablation.estimator_sweep ~jobs () in
  Ablation.print ppf (safety, arrival, sizes, estimators)

let table =
  [
    ( "fig4",
      fun s ppf ->
        Fig4.print ppf
          (Fig4.compare_modes ~failures:(pick s ~quick:200 ~paper:1000)
             ~jobs:s.jobs ()) );
    ( "fig5",
      fun s ppf ->
        Fig5.print ppf
          (Fig5.compare_modes ~hold:(hold s ~quick:3 ~paper:10) ~jobs:s.jobs ())
    );
    ( "fig5sat",
      fun s ppf ->
        Fig5.print_saturation ppf
          (Fig5.saturation ~hold:(hold s ~quick:3 ~paper:10) ~jobs:s.jobs ()) );
    ("fig6a", fig6 Fig6.Gradual);
    ("fig6b", fig6 Fig6.Radical);
    ( "fig7",
      fun s ppf ->
        Fig7.print ppf
          (Fig7.compare_modes ~hold:(hold s ~quick:20 ~paper:180) ~jobs:s.jobs
             ~ns:[ 5; 17; 65 ] ()) );
    ( "fig8",
      fun s ppf ->
        Fig8.print ppf
          (Fig8.compare_modes ~failures:(pick s ~quick:150 ~paper:1000)
             ~jobs:s.jobs ()) );
    ("ablation", ablation);
    ( "reconfig",
      fun s ppf ->
        Reconfig.print ppf
          (Reconfig.compare_modes ~rounds:(pick s ~quick:4 ~paper:8)
             ~jobs:s.jobs ()) );
    ( "extensions",
      fun s ppf ->
        Extensions.print ppf
          (Extensions.run ~hold:(hold s ~quick:3 ~paper:10) ~jobs:s.jobs ()) );
    ( "multiraft",
      fun s ppf ->
        Multiraft_scenario.print ppf
          (Multiraft_scenario.sweep
             ~group_counts:(pick s ~quick:[ 4; 16 ] ~paper:[ 16; 64 ])
             ~hold:(hold s ~quick:2 ~paper:5) ~jobs:s.jobs ()) );
  ]
