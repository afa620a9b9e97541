(* The library's public face.  An explicit main module (rather than
   dune's generated alias) so the multiraft scenario can live in a file
   whose name does not shadow the [Multiraft] library it drives. *)

module Ablation = Ablation
module Explain = Explain
module Extensions = Extensions
module Fig4 = Fig4
module Fig5 = Fig5
module Fig6 = Fig6
module Fig7 = Fig7
module Fig8 = Fig8
module Figures = Figures
module Geo = Geo
module Measure = Measure
module Multiraft = Multiraft_scenario
module Reconfig = Reconfig
module Report = Report
