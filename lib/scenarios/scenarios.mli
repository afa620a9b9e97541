(** The scenario library: reproductions of the paper's figures, the
    extensions, and the multiraft sharding sweep.

    An explicit main module so [Scenarios.Multiraft] can be implemented
    by [Multiraft_scenario] without shadowing the [Multiraft] library
    it drives. *)

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
