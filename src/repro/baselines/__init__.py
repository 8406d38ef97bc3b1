"""Baseline algorithms the paper compares against (MPX, BFS, HADI, Gonzalez)."""

from repro.baselines.bfs_diameter import BFSDiameterResult, bfs_diameter, mr_bfs_diameter
from repro.baselines.gonzalez import gonzalez_kcenter, random_centers_kcenter
from repro.baselines.hadi import HADIResult, fm_estimate, hadi_diameter, make_fm_sketches
from repro.baselines.mpx import mpx_decomposition, mpx_with_target_clusters

__all__ = [
    "BFSDiameterResult",
    "bfs_diameter",
    "mr_bfs_diameter",
    "gonzalez_kcenter",
    "random_centers_kcenter",
    "HADIResult",
    "fm_estimate",
    "hadi_diameter",
    "make_fm_sketches",
    "mpx_decomposition",
    "mpx_with_target_clusters",
]
