"""Fiber Fabry-Perot membrane-cavity simulation and spectroscopy toolkit.

Subpackage map:

* :mod:`microcav.stack` - materials, layers, mirrors, cavity assembly
* :mod:`microcav.tmm` - Airy-step multilayer solver and per-layer fields
* :mod:`microcav.phase` - the round-trip phase model, any membrane from one coating sweep
* :mod:`microcav.resonance` - resonances, dispersion maps, effective length
* :mod:`microcav.dispersion_fit` - membrane thickness / parasitic-gap fit
* :mod:`microcav.metrics` - mode geometry, loss budgets, finesse, Q
* :mod:`microcav.purcell` - emitter coupling, lifetime curves and their fit
* :mod:`microcav.fitting` - damped least-squares engine
* :mod:`microcav.spectral` / :mod:`microcav.decay` - line and decay models
* :mod:`microcav.scans` - length scans, lock traces, noise spectra
* :mod:`microcav.cli` - command-line entry point

Importing the package loads none of these modules, and so no numpy.
"""

from .constants import TOOLKIT_VERSION as __version__
