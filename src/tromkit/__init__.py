"""Parametric model order reduction with low-rank tensor compression and
two-stage DEIM hyper-reduction, plus the finite-difference test problems and
a benchmark harness."""

from .decomp import (CPDecomposition, TTDecomposition, TuckerDecomposition,
                     cp_als, hosvd, reconstruct, relative_error, tt_svd)
from .deim import SelectionIndices, deim_apply, deim_select, selection_gain
from .fom import (AllenCahnConfig, BurgersConfig, SnapshotSet, allen_cahn_fom,
                  burgers_fom, sample_snapshots)
from .grids import GridAxis, ParameterGrid, interp_weights, uniform_axis
from .pod import PodRom, pod_offline, pod_solve
from .stepping import AdvectiveTerm, AffineOperator, PointwiseTerm
from .tensors import frobenius_norm, unfold
from .trom import (LocalROM, OfflineArtifact, build_offline, build_reduced_system,
                   load_artifact, local_bases, save_artifact, trom_solve)

__version__ = "0.1.0"

__all__ = [
    "AdvectiveTerm", "AffineOperator", "AllenCahnConfig", "BurgersConfig",
    "CPDecomposition", "GridAxis", "LocalROM", "OfflineArtifact",
    "ParameterGrid", "PodRom", "PointwiseTerm", "SelectionIndices",
    "SnapshotSet", "TTDecomposition", "TuckerDecomposition",
    "allen_cahn_fom", "build_offline", "build_reduced_system", "burgers_fom",
    "cp_als", "deim_apply", "deim_select", "frobenius_norm", "hosvd",
    "interp_weights", "load_artifact", "local_bases", "pod_offline", "pod_solve",
    "reconstruct", "relative_error", "sample_snapshots", "save_artifact",
    "selection_gain", "trom_solve", "tt_svd", "unfold", "uniform_axis",
]
