"""CSV input and output: the numpy fast path against the row parser, and
write_csv against csv.writer."""

import csv
import io as stdio
import warnings

import numpy as np
import pytest

from microcav import constants, io, scans, synth
from microcav import stack as st
from microcav.cli import main
from microcav.decay import DecayTrace
from microcav.io import CsvFormatError
from microcav.purcell import EmitterParams, predict_lifetime_curve
from microcav.resonance import dispersion_map


def csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for a header and rows."""
    buf = stdio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def fast_path(path, n_min, n_max, monkeypatch):
    """read_columns with the row parser disabled: fails unless numpy parsed the file."""
    with monkeypatch.context() as m:
        m.setattr(io, "_read_rows", lambda *a: pytest.fail(f"{path} fell back to the row parser"))
        return io.read_columns(path, n_min, n_max)


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


class TestFastPathEqualsRowParser:
    def test_repr_written_floats(self, tmp_path, rng, monkeypatch):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e308,
                   -1.7976931348623157e308, 1e-300, 0.1, 1 / 3, 123456789.123456789, -1e-5]
        magnitudes = 10.0 ** rng.uniform(-320, 308, 3000)
        values = np.concatenate([special, rng.normal(size=3000), magnitudes * rng.choice([-1.0, 1.0], 3000)])
        values = np.concatenate([values, rng.permutation(values)[: (-values.size) % 3]]).reshape(-1, 3)
        path = tmp_path / "floats.csv"
        path.write_bytes(csv_writer_bytes(["a", "b", "c"], ([repr(float(v)) for v in row] for row in values)))
        parsed = fast_path(path, 3, 3, monkeypatch)
        assert_bits_equal(parsed, io._read_rows(path, 3, 3))
        assert_bits_equal(parsed, values)

    def test_benchmark_inputs(self, tmp_path, monkeypatch):
        synth_args = [["decay", "--tau", "1.36", "--sigma-irf", "0.3"], ["doublet"], ["spectrum"], ["tdep"], ["scan"], ["lock"]]
        for args in synth_args:
            assert main(["--outdir", str(tmp_path), "synth", *args, "--seed", "5"]) == 0
        assert main(["--outdir", str(tmp_path), "purcell", "--points", "4"]) == 0
        with open(tmp_path / "purcell.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        (tmp_path / "lifetimes.csv").write_bytes(csv_writer_bytes(
            ["l_eff_um", "tau_ns", "sigma_ns"],
            ([r["l_eff_um"], repr(float(r["tau_ns"]) * 1.01), repr(0.02 * float(r["tau_ns"]))] for r in table)))
        # the column counts each command accepts
        widths = {"decay": (2, 2), "doublet": (2, 3), "spectrum": (2, 3), "tdep": (2, 2), "scan": (1, 2),
                  "lock_unlocked": (2, 2), "lock_locked": (2, 2), "lifetimes": (3, 3)}
        for name, (n_min, n_max) in widths.items():
            path = tmp_path / f"{name}.csv"
            assert_bits_equal(fast_path(path, n_min, n_max, monkeypatch), io._read_rows(path, n_min, n_max))


    @pytest.mark.parametrize("prefix", ["# locked run, 780 nm\n", "\n", "t_s,transmission\n"])
    def test_header_on_line_two(self, tmp_path, prefix, monkeypatch):
        # a header after a comment, a blank line or another header stays on numpy's path
        assert main(["--outdir", str(tmp_path), "synth", "lock", "--seed", "5"]) == 0
        plain = tmp_path / "lock_locked.csv"
        moved = tmp_path / "moved.csv"
        moved.write_bytes(prefix.encode() + plain.read_bytes())
        parsed = fast_path(moved, 2, 2, monkeypatch)
        assert_bits_equal(parsed, io.read_columns(plain, 2, 2))
        assert_bits_equal(parsed, io._read_rows(moved, 2, 2))


# (file text, n_min, n_max, the data rows, or the line an error names)
CASES = {
    "header": ("time,counts\n1.5,2\n3,4\n", 2, 2, [[1.5, 2.0], [3.0, 4.0]]),
    "comment_before_header": ("# run 7\ntime,counts\n1,2\n", 2, 2, [[1.0, 2.0]]),
    "comment_lines": ("# run 7\n1,2\n# paused\n\n3,4\n", 2, 2, [[1.0, 2.0], [3.0, 4.0]]),
    "trailing_comment": ("t,y\n1,2 # first\n3,4\n", 2, 2, [[1.0, 2.0], [3.0, 4.0]]),
    "crlf": ("t,y\r\n1,2\r\n3,4\r\n", 2, 2, [[1.0, 2.0], [3.0, 4.0]]),
    "ragged_row": ("t,y\n1,2\n3\n", 1, 2, "line 3"),
    "too_many_columns": ("1,2,3\n", 2, 2, "line 1"),
    "trailing_comma": ("t,y,\n1,2,\n3,4,\n", 2, 2, [[1.0, 2.0], [3.0, 4.0]]),
    "quoted_field": ('t,y\n"1",2\n3,"4"\n', 2, 2, [[1.0, 2.0], [3.0, 4.0]]),
    "underscore_digits": ("t,y\n1_000,2\n", 2, 2, [[1000.0, 2.0]]),
    "non_numeric": ("t,y\n1,2\n3,oops\n", 2, 2, "line 3"),
    "second_header": ("t,y\n1,2\nt,y\n", 2, 2, "line 3"),
    "nan": ("t,y\n1,2\n3,nan\n", 2, 2, "line 3"),
    "inf": ("t,y\n-inf,2\n", 2, 2, "line 2"),
    "overflow_to_inf": ("1e400,2\n", 2, 2, "line 1"),
    "header_only": ("t,y\n", 2, 2, "no data rows"),
    "empty": ("", 2, 2, "no data rows"),
}


class TestCsvCases:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, tmp_path, name):
        text, n_min, n_max, expected = CASES[name]
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(CsvFormatError, match=expected) as err:
                    io.read_columns(path, n_min, n_max)
                with pytest.raises(CsvFormatError) as ref:
                    io._read_rows(path, n_min, n_max)
                assert str(err.value) == str(ref.value)
            else:
                assert_bits_equal(io.read_columns(path, n_min, n_max), np.asarray(expected))
                assert_bits_equal(io._read_rows(path, n_min, n_max), np.asarray(expected))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "trace.csv"
        path.write_text(f"t_ns,counts\n0.0,10\n0.1,{value}\n0.2,12\n")
        with pytest.raises(CsvFormatError, match=r"line 3: non-finite"):
            io.read_columns(path, 2)
        assert main(["--outdir", str(tmp_path), "fit-decay", "--model", "mono", "--data", str(path)]) == 1


class TestFiniteTraces:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_decay_trace(self, bad):
        t = np.arange(16) * 0.1
        counts = np.full(16, 10.0)
        for tt, cc in ((t, np.where(np.arange(16) == 5, bad, counts)), (np.where(np.arange(16) == 5, bad, t), counts)):
            with pytest.raises(ValueError, match="finite"):
                DecayTrace(tt, cc)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_lock_trace(self, bad):
        t = np.arange(32) * 1e-3
        y = np.full(32, 0.5)
        for tt, yy in ((t, np.where(np.arange(32) == 7, bad, y)), (np.where(np.arange(32) == 7, bad, t), y)):
            with pytest.raises(ValueError, match="finite"):
                scans.LockTrace(tt, yy, 780.0, 300.0)


class TestWriteCsvMatchesCsvWriter:
    def test_synth_outputs(self, tmp_path):
        seed = 4
        for args in (["decay", "--tau", "1.36", "--sigma-irf", "0.3"], ["doublet"], ["spectrum"], ["tdep"], ["scan"], ["lock"]):
            assert main(["--outdir", str(tmp_path), "synth", *args, "--seed", str(seed)]) == 0
        decay = synth.synth_decay_trace(tau_ns=1.36, sigma_irf_ns=0.3, seed=seed)
        doublet = synth.synth_doublet_spectrum(seed=seed)
        spectrum = synth.synth_lorentzian_spectrum(seed=seed)
        scan = synth.synth_scan_trace(seed=seed).transmission
        unlocked, locked = scans.synthesize_lock_traces(scans.LockSynthConfig(), seed)
        expected = {
            "decay.csv": (["t_ns", "counts"], zip(decay.t_ns, decay.counts)),
            "doublet.csv": (["wavelength_nm", "counts"], zip(doublet.x, doublet.y)),
            "spectrum.csv": (["wavelength_nm", "counts"], zip(spectrum.x, spectrum.y)),
            "tdep.csv": (["temperature_k", "center_nm"], synth.synth_temperature_series(seed=seed)),
            "scan.csv": (["sample", "transmission"], zip(np.arange(scan.size), scan)),
            "lock_unlocked.csv": (["time_s", "transmission"], zip(unlocked.time_s, unlocked.transmission)),
            "lock_locked.csv": (["time_s", "transmission"], zip(locked.time_s, locked.transmission)),
        }
        for name, (header, rows) in expected.items():
            assert (tmp_path / name).read_bytes() == csv_writer_bytes(header, rows), name

    def test_map_csv(self, tmp_path, membrane_assembly):
        dmap = dispersion_map(membrane_assembly, (13_000.0, 13_400.0), 4, (730.0, 740.0), 60)
        io.write_csv(tmp_path / "map.csv", ["gap_nm", "wavelength_nm", "transmission"], columns=dmap.columns())
        rows = ((float(g), float(w), float(dmap.t[i, j]))
                for i, g in enumerate(dmap.gaps_nm) for j, w in enumerate(dmap.wavelengths_nm))
        assert (tmp_path / "map.csv").read_bytes() == csv_writer_bytes(["gap_nm", "wavelength_nm", "transmission"], rows)

    def test_asd_csv(self, tmp_path):
        unlocked, locked = scans.synthesize_lock_traces(scans.LockSynthConfig(), 2)
        for state, trace in (("unlocked", unlocked), ("locked", locked)):
            (tmp_path / f"lock_{state}.csv").write_bytes(csv_writer_bytes(
                ["time_s", "transmission"], zip(trace.time_s, trace.transmission)))
        assert main(["--outdir", str(tmp_path), "analyze-lock", "--unlocked", str(tmp_path / "lock_unlocked.csv"),
                     "--locked", str(tmp_path / "lock_locked.csv")]) == 0
        for state, trace in (("unlocked", unlocked), ("locked", locked)):
            dev = scans.length_deviation(trace)
            filled = np.where(np.isnan(dev.delta_pm), 0.0, dev.delta_pm - np.nanmean(dev.delta_pm))
            spectrum = scans.noise_spectrum(filled, trace.rate_hz)
            expected = csv_writer_bytes(["freq_hz", "asd_pm_per_rthz"], zip(spectrum.freq_hz, spectrum.asd))
            assert (tmp_path / f"asd_{state}.csv").read_bytes() == expected

    def test_purcell_csv(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "purcell", "--points", "3"]) == 0
        points = predict_lifetime_curve(st.default_assembly(), np.linspace(8900.0, 26000.0, 3), EmitterParams(), 1.36, 0.51,
                                        membrane_loss_ppm=constants.MEMBRANE_EXCESS_LOSS_PPM)
        header = ["gap_nm", "q_gap", "l_eff_um", "w0_um", "v_m_um3", "q_c", "q_eff", "xi", "f_p", "tau_ns", "flag"]
        expected = csv_writer_bytes(header, ([p.to_row()[k] for k in header] for p in points))
        assert (tmp_path / "purcell.csv").read_bytes() == expected

    @pytest.mark.parametrize("n", [0, 1, io._CHUNK_ROWS - 1, io._CHUNK_ROWS, io._CHUNK_ROWS + 1,
                                   io._TABLE_ROWS - 1, io._TABLE_ROWS, io._TABLE_ROWS + 1, 3 * io._TABLE_ROWS])
    def test_edge_columns(self, tmp_path, rng, n):
        # each repeating column is formatted once per distinct bit pattern;
        # the all-distinct one, past the table's size, per value.  The last
        # column repeats for _TABLE_ROWS values, then turns distinct: its
        # first _TABLE_ROWS + 1 values pass the probe, and the whole column
        # then has too many patterns
        first = min(n, io._TABLE_ROWS)
        columns = {
            "signed_zeros": np.resize([0.0, -0.0, 2.5], n),
            "non_finite": np.resize([np.nan, np.inf, -np.inf, -np.nan, 1e-300], n),
            "sample": np.arange(n),
            "float32": rng.standard_normal(n).astype(np.float32),
            "float32_repeating": np.resize(np.float32([0.1, -0.0, 3.0]), n),
            "distinct": rng.standard_normal(n),
            "repeat_then_distinct": np.concatenate((np.resize([0.5, -0.0, 7.25], first), rng.standard_normal(n - first))),
            "flag": np.resize([True, False, False], n),
        }
        io.write_csv(tmp_path / "edge.csv", list(columns), columns=columns.values())
        expected = csv_writer_bytes(list(columns), zip(*(c.tolist() for c in columns.values())))
        assert (tmp_path / "edge.csv").read_bytes() == expected

    def test_non_numeric_column_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="numeric"):
            io.write_csv(tmp_path / "text.csv", ["a", "b"], columns=[np.arange(2), np.array(["x,y", "z"])])

    def test_unequal_columns_rejected(self, tmp_path):
        # a longer column would lose its tail; nothing is written
        with pytest.raises(ValueError, match=r"\[3, 2\]"):
            io.write_csv(tmp_path / "short.csv", ["a", "b"], columns=[np.arange(3), np.ones(2)])
        assert not (tmp_path / "short.csv").exists()

    def test_peak_memory_of_a_lock_trace(self, tmp_path, rng, traced_peak):
        # a 131,072-row lock trace: the writer holds one chunk of text at a
        # time, not every row as Python floats and strings at once
        time_s, transmission = np.arange(131_072) * 1e-6, rng.random(131_072)
        peak = traced_peak(io.write_csv, tmp_path / "lock.csv", ["time_s", "transmission"], columns=[time_s, transmission])
        assert peak < 8e6

    def test_peak_memory_of_a_scan(self, tmp_path, rng, traced_peak):
        # a 285,000-row scan of an int and a float column: one chunk of slots at a time
        sample, transmission = np.arange(285_000), rng.random(285_000)
        peak = traced_peak(io.write_csv, tmp_path / "scan.csv", ["sample", "transmission"], columns=[sample, transmission])
        assert peak < 8e6

    def test_distinct_column_is_not_sorted(self, tmp_path, rng, monkeypatch):
        # a column whose first _TABLE_ROWS + 1 values are all distinct goes
        # to the per-value path after sorting only those
        sorted_sizes = []
        sort = np.sort
        monkeypatch.setattr(io.np, "sort", lambda a: sorted_sizes.append(a.size) or sort(a))
        io.write_csv(tmp_path / "asd.csv", ["asd"], columns=[rng.random(10 * io._TABLE_ROWS)])
        assert sorted_sizes == [io._TABLE_ROWS + 1]


def assert_printed_as_str(path, column):
    """write_csv prints each value of a 1-D column as str() of its tolist() value."""
    io.write_csv(path, ["value"], columns=[column])
    lines = path.read_bytes().split(b"\r\n")
    expected = [b"value", *(str(v).encode() for v in column.tolist()), b""]
    assert len(lines) == len(expected)
    wrong = [(e, g) for e, g in zip(expected, lines) if e != g]
    assert not wrong, wrong[:10]


def with_neighbours(values: np.ndarray) -> np.ndarray:
    """Each value, the doubles on either side of it, and all of these negated."""
    values = np.concatenate((np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)))
    return np.concatenate((values, -values))


class TestNumberPrinter:
    """The bulk printer against str(), on the values where shortest-digit printing goes wrong."""

    def test_random_bit_patterns(self, tmp_path, rng):
        bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
        assert_printed_as_str(tmp_path / "bits.csv", bits.view(np.float64))

    def test_hypothesis_bit_patterns(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(hst.lists(hst.integers(0, 2**64 - 1), min_size=1, max_size=40))
        def check(patterns):
            assert_printed_as_str(tmp_path / "bits.csv", np.array(patterns, dtype=np.uint64).view(np.float64))

        check()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_hypothesis_integers(self, tmp_path, dtype):
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies
        info = np.iinfo(dtype)

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(hst.lists(hst.integers(int(info.min), int(info.max)), min_size=1, max_size=40))
        def check(values):
            assert_printed_as_str(tmp_path / "integers.csv", np.array(values, dtype=dtype))

        check()

    def test_powers_of_two(self, tmp_path):
        # 2^-1074 (the smallest subnormal) to 2^1023; 2^-1022 is the
        # smallest normal, where the spacing below stays regular
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_printed_as_str(tmp_path / "powers.csv", with_neighbours(powers))

    def test_decades(self, tmp_path):
        decades = np.array([float(f"1e{e}") for e in range(-323, 309)])
        assert_printed_as_str(tmp_path / "decades.csv", with_neighbours(decades))

    def test_switch_points(self, tmp_path):
        # repr turns scientific at 1e16 and below 1e-4
        switch = np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05])
        assert [str(v) for v in switch] == ["1e+16", "9999999999999998.0", "0.0001", "9.999999999999999e-05"]
        assert_printed_as_str(tmp_path / "switch.csv", with_neighbours(switch))

    def test_special_values(self, tmp_path):
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                            2.225073858507201e-308, np.finfo(np.float64).max, -np.finfo(np.float64).max])
        # each once, in the table of a repeating column, and in a column printed per value
        assert_printed_as_str(tmp_path / "table.csv", special)
        assert_printed_as_str(tmp_path / "per_value.csv", np.concatenate((special, np.arange(1.0, 2 * io._TABLE_ROWS))))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_floats(self, tmp_path, rng, dtype):
        # every bit pattern of the narrower float, subnormals, inf and nan among them, widened exactly
        width = np.dtype(dtype).itemsize * 8
        bits = np.arange(2**16, dtype=np.uint16) if width == 16 else rng.integers(0, 2**32, 200_000, dtype=np.uint32)
        assert_printed_as_str(tmp_path / "narrow.csv", bits.view(dtype))

    @pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8, reason="long double is a double here")
    def test_wider_floats_rejected(self, tmp_path):
        # the printer widens floats to float64 exactly; a wider float would lose digits
        with pytest.raises(TypeError, match="at most 64 bits"):
            io.write_csv(tmp_path / "long.csv", ["value"], columns=[np.ones(3, dtype=np.longdouble)])

    def test_integer_extremes(self, tmp_path):
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64):
            info = np.iinfo(dtype)
            values = np.array([info.min, info.max, 0, 1, info.max - 1, 9, 10, 99, 100], dtype=dtype)
            assert_printed_as_str(tmp_path / "extremes.csv", values)
            assert_printed_as_str(tmp_path / "powers.csv", np.array([10**j for j in range(len(str(info.max)))], dtype=dtype))
