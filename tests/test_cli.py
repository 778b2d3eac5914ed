import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microcav
from microcav import io, metrics
from microcav import stack as st
from microcav.cli import main
from microcav.purcell import EmitterParams, predict_lifetime_curve
from microcav.io import CsvFormatError
from oracles import stack_response


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


class TestSynthAndFit:
    def test_doublet_pipeline(self, tmp_path):
        assert run(tmp_path, "synth", "doublet") == 0
        assert run(tmp_path, "fit-spectrum", "--model", "doublet", "--data", str(tmp_path / "doublet.csv")) == 0
        payload = json.loads((tmp_path / "fit_spectrum_doublet.json").read_text())
        assert payload["splitting_ghz"] == pytest.approx(375.0, rel=0.05)
        assert payload["fit"]["converged"]
        # provenance: version and input checksum embedded
        assert payload["meta"]["toolkit_version"]
        assert any(len(v) == 64 for v in payload["meta"]["inputs"].values())

    def test_decay_all_pipeline(self, tmp_path):
        assert run(tmp_path, "synth", "decay", "--tau", "1.36") == 0
        assert run(tmp_path, "fit-decay", "--model", "all", "--data", str(tmp_path / "decay.csv")) == 0
        payload = json.loads((tmp_path / "fit_decay_all.json").read_text())
        s = payload["summary"]
        assert s["tau_min_ns"] <= s["tau_best_ns"] <= s["tau_max_ns"]
        assert s["tau_best_ns"] == pytest.approx(1.36, rel=0.02)

    def test_tdep_pipeline(self, tmp_path):
        assert run(tmp_path, "synth", "tdep") == 0
        assert run(tmp_path, "fit-tdep", "--data", str(tmp_path / "tdep.csv")) == 0
        payload = json.loads((tmp_path / "fit_tdep.json").read_text())
        assert payload["fit"]["params"]["value_at_0"]["value"] == pytest.approx(736.86, abs=0.03)

    def test_scan_pipeline(self, tmp_path):
        assert run(tmp_path, "synth", "scan") == 0
        assert run(tmp_path, "analyze-scan", "--data", str(tmp_path / "scan.csv")) == 0
        payload = json.loads((tmp_path / "scan_analysis.json").read_text())
        assert payload["finesse"] == pytest.approx(2200.0, rel=0.05)
        assert sum(1 for p in payload["peaks"] if p["fundamental"]) == 9

    def test_lock_pipeline(self, tmp_path):
        assert run(tmp_path, "synth", "lock", "--seed", "3") == 0
        assert run(
            tmp_path,
            "analyze-lock",
            "--unlocked", str(tmp_path / "lock_unlocked.csv"),
            "--locked", str(tmp_path / "lock_locked.csv"),
        ) == 0
        payload = json.loads((tmp_path / "lock_analysis.json").read_text())
        assert payload["unlocked"]["sigma_pm"] == pytest.approx(290.0, rel=0.15)
        assert payload["locked"]["sigma_pm"] == pytest.approx(60.0, rel=0.15)
        assert abs(100 * payload["suppression"] - 77.0) <= 5.0
        assert (tmp_path / "asd_locked.csv").exists()

    def test_synth_deterministic(self, tmp_path):
        run(tmp_path, "synth", "decay", "--seed", "9")
        first = (tmp_path / "decay.csv").read_bytes()
        run(tmp_path, "synth", "decay", "--seed", "9")
        assert (tmp_path / "decay.csv").read_bytes() == first


class TestDispersionCommand:
    def test_self_generated_fit(self, tmp_path):
        code = run(
            tmp_path, "dispersion",
            "--gap-steps", "7", "--map-gap-steps", "8", "--wl-steps", "120",
            "--no-second-gap", "--seed", "1",
        )
        assert code == 0
        fit = json.loads((tmp_path / "fit.json").read_text())["fits"]
        assert fit["free"]["params"]["t_d_nm"]["value"] == pytest.approx(1420.0, abs=20.0)
        assert fit["free"]["params"]["t_g2_nm"]["value"] == pytest.approx(250.0, abs=50.0)
        assert fit["chi2_ratio_frozen_over_free"] >= 5.0
        rows = io.read_columns(tmp_path / "map.csv", 3)
        assert rows.shape == (8 * 120, 3)
        res = json.loads((tmp_path / "resonances.json").read_text())["resonances"]
        assert res and {"gap_nm", "wavelength_nm", "q_gap", "character"} <= set(res[0])

    def test_thin_membrane_writes_fit(self, tmp_path):
        cfg = st.default_assembly_config()
        cfg["membrane"]["thickness_nm"] = 15.0
        cfg["implant_depth_nm"] = 5.0
        (tmp_path / "thin.json").write_text(json.dumps(cfg))
        code = run(tmp_path, "dispersion", "--assembly", str(tmp_path / "thin.json"),
                   "--map-gap-steps", "4", "--wl-steps", "60", "--no-second-gap")
        assert code == 0
        fits = json.loads((tmp_path / "fit.json").read_text())["fits"]
        assert fits["free"]["params"]["t_d_nm"]["value"] >= 1.0
        assert fits["gap2_frozen_at_0"]["params"]["t_d_nm"]["value"] >= 1.0


class TestPurcellCommand:
    def test_beta_utility(self, capsys, tmp_path):
        assert run(tmp_path, "purcell", "--fp", "144") == 0
        assert "99.31%" in capsys.readouterr().out

    def test_table(self, tmp_path):
        assert run(tmp_path, "purcell", "--points", "3", "--gap-min", "8000", "--gap-max", "16000") == 0
        text = (tmp_path / "purcell.csv").read_text().splitlines()
        assert text[0].startswith("gap_nm,")
        assert len(text) == 4

    def test_default_shortest_point_in_band(self, tmp_path):
        assert run(tmp_path, "purcell") == 0
        rows = (tmp_path / "purcell.csv").read_text().splitlines()[1:]
        first = rows[0].split(",")
        f_p = float(first[8])
        assert abs(f_p - 0.071) <= 0.018

    def test_implant_depth_read_from_the_assembly(self, tmp_path, capsys):
        def table(depth_nm):
            cfg = {**st.default_assembly_config(), "implant_depth_nm": depth_nm}
            (tmp_path / "a.json").write_text(json.dumps(cfg))
            assert run(tmp_path, "purcell", "--points", "3", "--assembly", str(tmp_path / "a.json")) == 0
            return (tmp_path / "purcell.csv").read_bytes()

        assert run(tmp_path, "purcell", "--points", "3") == 0
        default = (tmp_path / "purcell.csv").read_bytes()
        assert table(75.0) == default
        assert table(300.0) != default
        emitter = tmp_path / "emitter.json"
        emitter.write_text(json.dumps({"implant_depth_nm": 300.0}))
        capsys.readouterr()
        assert run(tmp_path, "purcell", "--points", "3", "--emitter", str(emitter)) == 1
        assert "set in the assembly config" in capsys.readouterr().err

    def test_empty_gap_list_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "purcell", "--points", "0")

    def test_fit_lifetime_reads_its_own_table_without_second_gap(self, tmp_path):
        # with the membrane on the plane mirror L_eff is about half the gap, so a
        # sweep that takes L_eff for the gap falls short of the table's range
        cfg = {**st.default_assembly_config(), "gap2_nm": 0.0}
        (tmp_path / "a.json").write_text(json.dumps(cfg))
        assert run(tmp_path, "purcell", "--points", "40", "--assembly", str(tmp_path / "a.json")) == 0
        with open(tmp_path / "purcell.csv", newline="") as fh:
            rows = [(float(r["l_eff_um"]), float(r["tau_ns"])) for r in csv.DictReader(fh) if not r["flag"]]
        l_eff, tau = np.array(rows).T
        assert l_eff.max() > 13.0 and l_eff.max() < 1e-3 * 26_000.0
        io.write_csv(tmp_path / "lifetimes.csv", ["l_eff_um", "tau_ns", "sigma_ns"], columns=[l_eff, tau, 0.02 * tau])
        assert run(tmp_path, "fit-lifetime", "--data", str(tmp_path / "lifetimes.csv"),
                   "--assembly", str(tmp_path / "a.json")) == 0
        params = json.loads((tmp_path / "fit_lifetime.json").read_text())["fit"]["params"]
        assert params["tau0_ns"]["value"] == pytest.approx(1.36, abs=1e-3)
        assert params["eta_qe"]["value"] == pytest.approx(0.51, abs=0.02)


class TestErrorPaths:
    def test_missing_config_no_partial_output(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "metrics", "--assembly", str(tmp_path / "nope.json"))
        assert not (tmp_path / "metrics.json").exists()

    def test_malformed_csv_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength_nm,counts\n736.0,10\n737.0,oops\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            io.read_columns(bad, 2)
        code = run(tmp_path, "fit-spectrum", "--model", "lorentz", "--data", str(bad))
        assert code == 1

    def test_negative_gap_rejected_before_output(self, tmp_path, capsys):
        assert run(tmp_path, "dispersion", "--gap-min", "-100") == 1
        assert "gaps must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()
        assert not (tmp_path / "resonances.json").exists()

    def test_ragged_csv_rejected(self, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1.0,2.0\n3.0,4.0,5.0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            io.read_columns(bad, 2, 3)

    def test_exit_zero_only_when_converged(self, tmp_path, rng):
        flat = tmp_path / "flat.csv"
        t = np.arange(0, 10, 0.05)
        io.write_csv(flat, ["t_ns", "counts"], zip(t, rng.poisson(100.0, t.size).astype(float)))
        assert run(tmp_path, "fit-decay", "--model", "all", "--data", str(flat)) == 1


class TestMetricsCommand:
    def test_prints_geometry(self, tmp_path, capsys):
        assert run(tmp_path, "metrics", "--gap", "10000") == 0
        out = capsys.readouterr().out
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["finesse"] == pytest.approx(1232.0, rel=0.01)
        assert "L_eff" in out

    def test_finesse_follows_configured_coatings(self, tmp_path):
        cfg = st.default_assembly_config()
        cfg["fiber_mirror"] = {"pairs": 14}
        cfg["plane_mirror"] = {"pairs": 8, "excess_loss_ppm": 300.0}
        (tmp_path / "a.json").write_text(json.dumps(cfg))
        assert run(tmp_path, "metrics", "--assembly", str(tmp_path / "a.json")) == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        a = st.assembly_from_config(cfg)
        t1, t2 = (stack_response(m.as_stack(st.AIR), 737.25).T * 1e6 for m in (a.fiber_mirror, a.plane_mirror))
        expected = 2.0 * np.pi / ((t1 + t2 + 20.0 + 300.0 + 2100.0) * 1e-6)
        assert payload["finesse"] == pytest.approx(expected, rel=1e-12)
        assert payload["finesse"] == pytest.approx(446.0, abs=1.0)

        # purcell's lifetime curve uses the same budget, so the same finesse
        point = predict_lifetime_curve(a, [10_000.0], EmitterParams(), 1.36, 0.51)[0]
        assert point.l_eff_um == payload["mode_geometry"]["effective_length_um"]
        assert point.q_c == pytest.approx(metrics.quality_factor(point.l_eff_um, 737.25, payload["finesse"]), rel=1e-12)

    def test_empty_cavity_membrane_loss_is_zero(self, tmp_path):
        cfg = {**st.default_assembly_config(), "membrane": None, "gap2_nm": 0.0}
        (tmp_path / "a.json").write_text(json.dumps(cfg))
        assert run(tmp_path, "metrics", "--assembly", str(tmp_path / "a.json")) == 0
        assert json.loads((tmp_path / "metrics.json").read_text())["loss_budget"]["membrane_ppm"] == 0.0

    def test_three_field_solves_per_command(self, tmp_path, field_solves):
        # metrics, a 40-point purcell sweep and fit-lifetime's 25-point sweep each
        # solve three sub-stacks, none of which holds both coatings
        assembly = st.default_assembly()
        both = len(assembly.fiber_mirror.layers) + len(assembly.plane_mirror.layers)
        data = tmp_path / "lifetimes.csv"
        io.write_csv(data, ["l_eff_um", "tau_ns", "sigma_ns"], [(8.0, 1.30, 0.03), (15.0, 1.33, 0.03), (22.0, 1.34, 0.03)])
        for argv in (["metrics"], ["purcell", "--points", "40"], ["fit-lifetime", "--data", str(data)]):
            field_solves.clear()
            assert run(tmp_path, *argv) == 0
            assert len(field_solves) == 3, argv
            assert all(len(stack.layers) < both for stack in field_solves)

    def test_provenance_records_the_membrane_loss_used(self, tmp_path):
        data = tmp_path / "lifetimes.csv"
        io.write_csv(data, ["l_eff_um", "tau_ns", "sigma_ns"], [(10.0, 1.32, 0.03), (15.0, 1.33, 0.03), (22.0, 1.34, 0.03)])
        assert run(tmp_path, "metrics", "--membrane-loss", "500") == 0
        assert run(tmp_path, "fit-lifetime", "--data", str(data), "--membrane-loss", "500") == 0
        for name in ("metrics.json", "fit_lifetime.json"):
            meta = json.loads((tmp_path / name).read_text())["meta"]
            assert meta["membrane_loss_ppm"] == 500.0
            assert not {"mirror_transmission_ppm", "membrane_excess_loss_ppm"} & set(meta["constants"])
        assert json.loads((tmp_path / "metrics.json").read_text())["loss_budget"]["membrane_ppm"] == 500.0


class TestEmptyCavityPurcell:
    @pytest.mark.parametrize("command", ["purcell", "fit-lifetime"])
    def test_one_error_line_no_traceback(self, tmp_path, capsys, command):
        cfg = {**st.default_assembly_config(), "membrane": None, "gap2_nm": 0.0}
        (tmp_path / "a.json").write_text(json.dumps(cfg))
        data = tmp_path / "lifetimes.csv"
        io.write_csv(data, ["l_eff_um", "tau_ns", "sigma_ns"], [(10.0, 1.3, 0.03), (20.0, 1.34, 0.03), (30.0, 1.35, 0.03)])
        extra = ["--data", str(data)] if command == "fit-lifetime" else ["--points", "2"]
        assert run(tmp_path, command, "--assembly", str(tmp_path / "a.json"), *extra) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "membrane" in err[0]
        assert not (tmp_path / "purcell.csv").exists()


def _fresh_interpreter(code: str, *args: str, **env: str | None) -> subprocess.CompletedProcess:
    """Run ``code`` in a new Python process that imports microcav from this source tree.

    Keyword arguments set environment variables, or remove them when None.
    """
    src = str(Path(microcav.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env = {k: v for k, v in env.items() if v is not None}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


_NO_PROC = not os.path.isdir("/proc/self/task")


class TestStartUp:
    # the variables OpenBLAS reads for its thread count, all unset
    NO_BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    # prints the process's thread count after importing the CLI
    COUNT_THREADS = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import microcav.cli\n"
        "assert dict(os.environ) == before, 'import microcav.cli changed os.environ'\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )

    @pytest.mark.skipif(_NO_PROC, reason="needs /proc/self/task")
    def test_cli_loads_blas_on_one_thread(self):
        proc = _fresh_interpreter(self.COUNT_THREADS, **self.NO_BLAS_THREADS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    @pytest.mark.skipif(_NO_PROC or (os.cpu_count() or 1) < 2, reason="needs /proc/self/task and 2 CPUs")
    @pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_user_thread_count_is_kept(self, name):
        proc = _fresh_interpreter(self.COUNT_THREADS, **{**self.NO_BLAS_THREADS, name: "2"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2"]

    def test_package_import_loads_no_numpy(self):
        proc = _fresh_interpreter("import sys, microcav\nassert 'numpy' not in sys.modules, 'import microcav loaded numpy'\n")
        assert proc.returncode == 0, proc.stderr


class TestScipyFreeSolverPath:
    def test_metrics_and_purcell_without_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from microcav.cli import main\n"
            "out = sys.argv[1]\n"
            "codes = [main(['--outdir', out, 'metrics', '--wavelength', '737.25']),\n"
            "         main(['--outdir', out, 'purcell', '--points', '3'])]\n"
            "sys.exit(max(codes))\n"
        )
        proc = _fresh_interpreter(code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "metrics.json").exists() and (tmp_path / "purcell.csv").exists()

    def test_fits_without_scipy(self, tmp_path):
        code = (
            "import csv, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from microcav.cli import main\n"
            "out = sys.argv[1]\n"
            "run = lambda *a: main(['--outdir', out, *a])\n"
            "codes = [run('synth', 'decay', '--tau', '1.36', '--sigma-irf', '0.3'),\n"
            "         run('fit-decay', '--model', 'all', '--data', out + '/decay.csv'),\n"
            "         run('synth', 'doublet'), run('fit-spectrum', '--model', 'doublet', '--data', out + '/doublet.csv'),\n"
            "         run('synth', 'spectrum'), run('fit-spectrum', '--model', 'lorentz', '--data', out + '/spectrum.csv'),\n"
            "         run('synth', 'tdep'), run('fit-tdep', '--data', out + '/tdep.csv'),\n"
            "         run('purcell', '--points', '12')]\n"
            "with open(out + '/purcell.csv', newline='') as src, open(out + '/lifetimes.csv', 'w', newline='') as dst:\n"
            "    rows = [(r['l_eff_um'], r['tau_ns'], 0.02 * float(r['tau_ns'])) for r in csv.DictReader(src)]\n"
            "    csv.writer(dst).writerows([('l_eff_um', 'tau_ns', 'sigma_ns'), *rows])\n"
            "codes += [run('fit-lifetime', '--data', out + '/lifetimes.csv'),\n"
            "          run('dispersion', '--no-second-gap', '--gap-steps', '5', '--map-gap-steps', '4', '--wl-steps', '60')]\n"
            "sys.exit(max(codes))\n"
        )
        proc = _fresh_interpreter(code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        for name in ("fit_decay_all.json", "fit_spectrum_doublet.json", "fit_spectrum_lorentz.json",
                     "fit_tdep.json", "fit_lifetime.json", "fit.json"):
            assert (tmp_path / name).exists(), name

    def test_scan_and_lock_analysis_without_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from microcav.cli import main\n"
            "out = sys.argv[1]\n"
            "run = lambda *a: main(['--outdir', out, *a])\n"
            "codes = [run('synth', 'scan'), run('analyze-scan', '--data', out + '/scan.csv'),\n"
            "         run('synth', 'lock'), run('analyze-lock', '--unlocked', out + '/lock_unlocked.csv',\n"
            "                                   '--locked', out + '/lock_locked.csv')]\n"
            "sys.exit(max(codes))\n"
        )
        proc = _fresh_interpreter(code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "scan_analysis.json").exists() and (tmp_path / "lock_analysis.json").exists()

    def test_find_resonances_leaves_scipy_signal_unloaded(self):
        code = (
            "import sys\n"
            "from microcav import stack\n"
            "from microcav.resonance import find_resonances\n"
            "assert find_resonances(stack.default_assembly(), 13500.0, (715.0, 755.0))\n"
            "assert 'scipy.signal' not in sys.modules, 'find_resonances loaded scipy.signal'\n"
        )
        proc = _fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr
