"""Tests of the benchmark's own machinery: span arithmetic and wrapper hygiene.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def _span(id_, parent, start, end, name="x"):
    return {"id": id_, "parent": parent, "command": "0:test", "name": name, "start": start, "end": end}


def test_self_time_subtracts_child_coverage():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 1, 1.5, 2.0),
        _span(3, 0, 4.0, 8.0),
        _span(4, 3, 5.0, 6.0),
        _span(5, 3, 6.5, 7.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 1.5, 2: 0.5, 3: 2.5, 4: 1.0, 5: 0.5})
    # self times partition the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, None, 0.0, 4.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 3.5)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_layer_metrics_from_synthetic_spans():
    tree = [
        _span(0, None, 0.0, 10.0, "cli.main"),
        _span(1, 0, 1.0, 6.0, "dispersion_fit.fit_dispersion"),
        _span(2, 1, 1.0, 2.0, "resonance.PhaseModel") | {"grid_points": 100},
        _span(3, 2, 1.2, 1.7, "tmm.amplitude_coefficients") | {"layer_points": 1000},
        _span(4, 1, 2.0, 5.0, "fitting.lm_fit") | {"model_id": "membrane-dispersion(gap2 fixed)", "nfev": 4},
        _span(5, 4, 2.5, 3.0, "resonance.PhaseModel") | {"grid_points": 100},
    ]
    m = spans.layer_metrics([tree])
    assert m["cli.main.self_s"] == pytest.approx(5.0)
    assert m["tmm.amplitude_coefficients.ns_per_layer_point"] == pytest.approx(0.5e9 / 1000)
    assert m["resonance.PhaseModel.self_s"] == pytest.approx(1.0)
    assert m["dispersion_fit.fit_dispersion.phasemodel_builds"] == 2
    assert m["dispersion_fit.fit_dispersion.builds_per_nfev"] == pytest.approx(0.5)
    assert m["dispersion_fit.fit_dispersion.lm_fit_runs"] == 1
    assert m["fitting.lm_fit.membrane-dispersion_gap2_fixed.nfev"] == 4


def _bindings():
    """Every value bound in a microcav module or held in a wrapped class."""
    import microcav.cli  # noqa: F401  imports every module the tracer wraps

    out = {}
    for key, module in list(sys.modules.items()):
        if key == "microcav" or key.startswith("microcav."):
            out.update({(key, name): value for name, value in vars(module).items()})
    from microcav.purcell import LifetimeModel
    from microcav.resonance import PhaseModel

    for cls in (PhaseModel, LifetimeModel):
        out.update({(cls.__qualname__, name): value for name, value in vars(cls).items()})
    return out


def test_install_and_uninstall_leave_every_function_identical():
    before = _bindings()
    tracer = spans.Tracer("0:test")
    tracer.install()
    during = _bindings()
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # every target was wrapped, including the `from .x import y` copies
    wrapped = {k for k in before if during[k] is not before[k]}
    assert ("microcav.cli", "find_resonances") in wrapped
    assert ("microcav.resonance", "amplitude_coefficients") in wrapped
    assert ("microcav.purcell", "effective_length") in wrapped
    for module_name, attr, _, _ in spans.TARGETS:
        owner, _, name = attr.rpartition(".")
        assert (owner or module_name, name) in wrapped


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.METRICS
    assert all(m["name"] == spans.metric_id(m["name"]) for m in spec["per_layer"] + spec["end_to_end"])


def test_failing_call_keeps_its_exception_and_is_counted():
    from microcav import fitting

    tracer = spans.Tracer("0:test")
    tracer.install()
    try:
        with pytest.raises(fitting.FitError, match="more data points"):
            fitting.lm_fit(lambda x, a: x * a, [1.0], [1.0], [1.0], model_id="lorentzian")
    finally:
        tracer.uninstall()
    m = spans.layer_metrics([tracer.spans])
    assert m["fitting.lm_fit.failed"] == 1
    assert m["fitting.lm_fit.lorentzian.failed"] == 1
