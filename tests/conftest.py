import numpy as np
import pytest

from microcav import resonance, tmm
from microcav import stack as st


@pytest.fixture(scope="session")
def fixture_mirror():
    return st.build_mirror()


@pytest.fixture(scope="session")
def membrane_assembly():
    """Documented membrane-cavity fixture (t_d 1420 nm, t_g2 250 nm)."""
    return st.default_assembly()


@pytest.fixture(scope="session")
def empty_assembly(fixture_mirror):
    return st.CavityAssembly(fixture_mirror, 10_000.0, None, 0.0, fixture_mirror, r_c_um=45.0)


@pytest.fixture(scope="session")
def hard_assembly():
    hm = st.hard_mirror()
    return st.CavityAssembly(hm, 10_000.0, None, 0.0, hm, r_c_um=45.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def field_solves(monkeypatch):
    """A list that grows by one per per-layer field solve (tmm._wave_amplitudes, at both of its bindings)."""
    calls = []
    solve = tmm._wave_amplitudes
    for module in (tmm, resonance):
        monkeypatch.setattr(module, "_wave_amplitudes", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


@pytest.fixture()
def layer_points(monkeypatch):
    """A list that grows by layers x wavelengths per TMM sweep (tmm.amplitude_coefficients, at both of its bindings)."""
    calls = []
    sweep = tmm.amplitude_coefficients

    def counted(stack, wavelength_nm):
        calls.append(len(stack.layers) * np.asarray(wavelength_nm).size)
        return sweep(stack, wavelength_nm)

    for module in (tmm, resonance):
        monkeypatch.setattr(module, "amplitude_coefficients", counted)
    return calls
