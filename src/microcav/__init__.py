"""Fiber Fabry-Perot membrane-cavity simulation and spectroscopy toolkit.

Subpackage map:

* :mod:`microcav.stack` - materials, layers, mirrors, cavity assembly
* :mod:`microcav.tmm` - Airy-step multilayer solver and per-layer fields
* :mod:`microcav.resonance` - resonances, dispersion maps, effective length
* :mod:`microcav.dispersion_fit` - membrane thickness / parasitic-gap fit
* :mod:`microcav.metrics` - mode geometry, loss budgets, finesse, Q
* :mod:`microcav.purcell` - emitter coupling, lifetime curves and their fit
* :mod:`microcav.fitting` - damped least-squares engine
* :mod:`microcav.spectral` / :mod:`microcav.decay` - line and decay models
* :mod:`microcav.scans` - length scans, lock traces, noise spectra
* :mod:`microcav.cli` - command-line entry point
"""

from .constants import TOOLKIT_VERSION as __version__
from .fitting import DegenerateFitWarning, FitError, FitResult, lm_fit
from .metrics import LossBudget, ModeGeometry, finesse_from_losses, mode_volume, mode_waist, quality_factor, roughness_loss
from .purcell import EmitterParams, beta_collection, effective_q, lifetime_ratio, purcell_factor, xi_overlap
from .resonance import ResonancePoint, StandingWave, dispersion_map, effective_length, find_resonances
from .stack import AIR, DIAMOND, SILICA, CavityAssembly, Layer, LayerStack, Material, Mirror, build_mirror, build_quarter_wave_stack, default_assembly, hard_mirror, load_assembly
from .tmm import StackResponse, stack_response

__all__ = [
    "__version__",
    "AIR",
    "DIAMOND",
    "SILICA",
    "CavityAssembly",
    "DegenerateFitWarning",
    "EmitterParams",
    "FitError",
    "FitResult",
    "Layer",
    "LayerStack",
    "LossBudget",
    "Material",
    "Mirror",
    "ModeGeometry",
    "ResonancePoint",
    "StackResponse",
    "StandingWave",
    "beta_collection",
    "build_mirror",
    "build_quarter_wave_stack",
    "default_assembly",
    "dispersion_map",
    "effective_length",
    "effective_q",
    "find_resonances",
    "finesse_from_losses",
    "hard_mirror",
    "lifetime_ratio",
    "lm_fit",
    "load_assembly",
    "mode_volume",
    "mode_waist",
    "purcell_factor",
    "quality_factor",
    "roughness_loss",
    "stack_response",
    "xi_overlap",
]
