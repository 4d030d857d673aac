"""Percolation model of quantum communication networks with distributed memories."""

from .quantum import (ALPHA_STAR, ChannelModel, DistillationParams, ModelParams,
                      bbpssw_fidelity, bbpssw_success, channel_p, fidelity_of_p,
                      nested_distill, swap_p)
from .topology import (EdgeListNetwork, PointCloud, RepeaterConfig,
                       generate_fiber_network, generate_uniform_points,
                       insert_repeaters, load_edge_list, save_edge_list)
from .engine import (Component, MergeEvent, PercolationState, ReduceEvent,
                     RunReport, init_state, run, verify_report)
from .analysis import (ComplexityParams, Scenario, SweepSpec, ThresholdEstimate,
                       coherence_time, complexity_f, find_threshold, interpolate_f,
                       min_d0_for_target, scenario_params, sweep_connectivity,
                       worst_case_n)

__version__ = "0.1.0"
