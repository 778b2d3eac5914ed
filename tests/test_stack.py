import json

import pytest

from microcav import constants, tmm
from microcav import stack as st
from microcav.stack import GeometryError
from oracles import flatten_assembly


def design_mirror_index(center_wavelength_nm, pairs, n_low, target_transmission_ppm, bracket=(1.7, 2.5)):
    """High index that makes a quarter-wave coating on silica hit a target transmission.

    The documented coating fixture froze this value as constants.MIRROR_N_HIGH.
    """
    from scipy.optimize import brentq

    def miss(nh):
        s = st.build_quarter_wave_stack(center_wavelength_nm, nh, n_low, pairs)
        return tmm.stack_response(s, center_wavelength_nm).T - target_transmission_ppm * 1e-6

    return float(brentq(miss, *bracket, xtol=1e-9))


class TestMaterialAndLayer:
    def test_material_invariants(self):
        with pytest.raises(GeometryError):
            st.Material("bogus", 0.9)
        with pytest.raises(GeometryError):
            st.Material("bogus", 1.5, kappa=-0.1)

    def test_complex_index(self):
        m = st.Material("x", 2.0, 0.25)
        assert m.nc == 2.0 + 0.25j

    def test_layer_invariants(self):
        with pytest.raises(GeometryError):
            st.Layer(st.DIAMOND, 0.0)
        with pytest.raises(GeometryError):
            st.Layer(st.DIAMOND, 100.0, rough_top_nm=-1.0)

    def test_stack_requires_layers(self):
        with pytest.raises(GeometryError):
            st.LayerStack(st.AIR, (), st.AIR)


class TestQuarterWaveBuilder:
    def test_single_pair_thicknesses(self):
        s = st.build_quarter_wave_stack(736.0, 2.10, 1.46, 1)
        assert len(s.layers) == 2
        thick = sorted(l.thickness_nm for l in s.layers)
        assert thick[0] == pytest.approx(736.0 / (4 * 2.10))
        assert thick[1] == pytest.approx(736.0 / (4 * 1.46))

    def test_transmission_monotone_in_pairs(self):
        t_prev = 1.0
        for pairs in range(1, 14):
            s = st.build_quarter_wave_stack(736.0, 2.10, 1.46, pairs)
            t = tmm.stack_response(s, 736.0).T
            assert t < t_prev
            t_prev = t

    def test_pair_sweep_first_below_target(self):
        # frozen by sweeping pairs at the nominal indices: 11 pairs are the
        # first to transmit no more than 1480 ppm at the design wavelength
        transmissions = {
            pairs: tmm.stack_response(st.build_quarter_wave_stack(736.0, 2.10, 1.46, pairs), 736.0).T
            for pairs in range(8, 13)
        }
        first = min(p for p, t in transmissions.items() if t <= 1480e-6)
        assert first == 11
        assert transmissions[11] == pytest.approx(921.4e-6, rel=1e-3)

    def test_zero_pairs_rejected(self):
        with pytest.raises(GeometryError):
            st.build_quarter_wave_stack(736.0, 2.10, 1.46, 0)

    def test_nonphysical_index_rejected(self):
        with pytest.raises(GeometryError):
            st.build_quarter_wave_stack(736.0, 0.8, 1.46, 3)

    def test_builders_are_pure(self):
        a = st.build_quarter_wave_stack(736.0, 2.10, 1.46, 5)
        b = st.build_quarter_wave_stack(736.0, 2.10, 1.46, 5)
        assert a == b

    def test_tuned_fixture_index(self):
        nh = design_mirror_index(736.0, 11, 1.46, 1480.0)
        assert nh == pytest.approx(constants.MIRROR_N_HIGH, abs=1e-4)


class TestAssembly:
    def test_invariants(self, fixture_mirror):
        with pytest.raises(GeometryError):
            st.CavityAssembly(fixture_mirror, -1.0, None, 0.0, fixture_mirror, r_c_um=45.0)
        with pytest.raises(GeometryError):
            st.CavityAssembly(fixture_mirror, 100.0, None, 0.0, fixture_mirror, r_c_um=0.0)
        mem = st.Layer(st.DIAMOND, 1420.0)
        with pytest.raises(GeometryError):
            st.CavityAssembly(fixture_mirror, 100.0, mem, 0.0, fixture_mirror, r_c_um=45.0,
                              implant_depth_nm=2000.0)

    def test_flatten_five_segments(self, membrane_assembly):
        s = flatten_assembly(membrane_assembly)
        names = [l.material.name for l in s.layers]
        n_mirror = len(membrane_assembly.fiber_mirror.layers)
        middle = names[n_mirror : n_mirror + 3]
        assert middle == ["air", "diamond", "air"]
        assert s.entry.name == "SiO2" and s.exit.name == "SiO2"

    def test_flatten_zero_gap2(self, fixture_mirror):
        mem = st.Layer(st.DIAMOND, 1420.0)
        asm = st.CavityAssembly(fixture_mirror, 5000.0, mem, 0.0, fixture_mirror, r_c_um=45.0)
        s = flatten_assembly(asm)
        names = [l.material.name for l in s.layers]
        i = names.index("diamond")
        # diamond sits directly on the plane-mirror cap layer
        assert names[i + 1] == "high-index"

    def test_flatten_preserves_total_thickness_exactly(self, membrane_assembly):
        import math

        s = flatten_assembly(membrane_assembly)
        parts = [l.thickness_nm for l in membrane_assembly.fiber_mirror.layers]
        parts += [membrane_assembly.gap_nm, membrane_assembly.membrane.thickness_nm, membrane_assembly.gap2_nm]
        parts += [l.thickness_nm for l in membrane_assembly.plane_mirror.layers]
        # fsum is exactly rounded, so the comparison is order-independent
        assert math.fsum(l.thickness_nm for l in s.layers) == math.fsum(parts)

    def test_flatten_round_trip_readback(self, membrane_assembly):
        s = flatten_assembly(membrane_assembly)
        n_mirror = len(membrane_assembly.fiber_mirror.layers)
        assert s.layers[n_mirror].thickness_nm == membrane_assembly.gap_nm
        assert s.layers[n_mirror + 1].thickness_nm == membrane_assembly.membrane.thickness_nm
        assert s.layers[n_mirror + 2].thickness_nm == membrane_assembly.gap2_nm

    @pytest.mark.parametrize("gap, membrane, gap2", [(5000.0, True, 250.0), (0.0, True, 0.0), (5000.0, False, 0.0)])
    def test_split_at_gap_matches_flattened_layout(self, fixture_mirror, gap, membrane, gap2):
        mem = st.Layer(st.DIAMOND, 1420.0) if membrane else None
        asm = st.CavityAssembly(fixture_mirror, gap, mem, gap2, fixture_mirror, r_c_um=45.0)
        fiber, rest = st.split_at_gap(asm)
        flat = flatten_assembly(asm)
        gap_layers = (st.Layer(st.AIR, gap),) if gap > 0 else ()
        assert flat.layers == tuple(reversed(fiber.layers)) + gap_layers + rest.layers
        assert fiber.entry == rest.entry == st.AIR
        assert (fiber.exit, rest.exit) == (flat.entry, flat.exit)
        assert rest.layers[0] is mem if mem is not None else rest.layers == tuple(reversed(fixture_mirror.layers))


class TestJsonConfig:
    def test_round_trip(self, tmp_path):
        cfg = st.default_assembly_config()
        path = tmp_path / "assembly.json"
        path.write_text(json.dumps(cfg))
        asm = st.load_assembly(path)
        assert asm.membrane.thickness_nm == 1420.0
        assert asm.gap2_nm == 250.0
        assert asm.r_c_um == 45.0
        assert asm.membrane.rough_top_nm == 3.6
        assert asm == st.assembly_from_config(cfg)

    def test_missing_keys(self):
        with pytest.raises(GeometryError, match="missing keys"):
            st.assembly_from_config({"gap_nm": 100.0})

    def test_unknown_mirror_keys(self):
        cfg = st.default_assembly_config()
        cfg["fiber_mirror"] = {"bogus_key": 1}
        with pytest.raises(GeometryError, match="unknown keys"):
            st.assembly_from_config(cfg)

    def test_unknown_assembly_keys(self):
        cfg = {**st.default_assembly_config(), "gap2nm": 0.0}
        with pytest.raises(GeometryError, match=r"assembly config: unknown keys \['gap2nm'\]"):
            st.assembly_from_config(cfg)

    def test_unknown_membrane_keys(self):
        cfg = st.default_assembly_config()
        cfg["membrane"] = {"thickness_nm": 1420.0, "sigma_rms": 3.6}
        with pytest.raises(GeometryError, match=r"membrane: unknown keys \['sigma_rms'\]"):
            st.assembly_from_config(cfg)

    def test_no_membrane(self):
        cfg = st.default_assembly_config()
        cfg["membrane"] = None
        cfg["gap2_nm"] = 0.0
        asm = st.assembly_from_config(cfg)
        assert asm.membrane is None
        assert asm.gap2_nm == 0.0
