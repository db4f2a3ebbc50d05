"""Parametric model order reduction with low-rank tensor compression and
two-stage DEIM hyper-reduction, plus the finite-difference test problems and
the command line that samples, compresses, queries and studies them."""

from .decomp import cp_als, hosvd, relative_error, tt_svd
from .deim import deim_select, selection_gain
from .fom import AllenCahnConfig, BurgersConfig, SnapshotSet, run_fom, sample_snapshots
from .grids import GridAxis, ParameterGrid, interp_weights, uniform_axis
from .pod import pod_offline, pod_solve
from .stepping import AdvectiveTerm, AffineOperator, PointwiseTerm
from .tensors import unfold
from .trom import (LocalROM, OfflineArtifact, build_offline, build_reduced_system,
                   load_artifact, local_bases, save_artifact, trom_solve)

__version__ = "0.1.0"

__all__ = [
    "AdvectiveTerm", "AffineOperator", "AllenCahnConfig", "BurgersConfig",
    "GridAxis", "LocalROM", "OfflineArtifact", "ParameterGrid", "PointwiseTerm",
    "SnapshotSet",
    "build_offline", "build_reduced_system",
    "cp_als", "deim_select", "hosvd",
    "interp_weights", "load_artifact", "local_bases", "pod_offline", "pod_solve",
    "relative_error", "run_fom", "sample_snapshots", "save_artifact",
    "selection_gain", "trom_solve", "tt_svd", "unfold", "uniform_axis",
]
