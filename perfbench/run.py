"""microcav benchmark: the CLI run the way a lab user runs it.

Usage, from the root of a microcav source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process runs the workload's commands one at a time, each in a
fresh interpreter, and starts the next only when the previous has ended
(a closed loop with one client).  The program is used from ``src/`` as it
stands; nothing is installed.

Set-up writes the workload's inputs from ``--seed``: one fresh interpreter
(the cold start) runs the CLI commands that write them.  It is repeated
``SETUP_REPEATS`` times and ``setup_s`` is the median.  With ``--trace 0``
the command sequence is repeated for ``--seconds`` and ``wall_s`` is the
median sequence time; ``peak_rss_mb`` is the highest max-RSS of any timed
command, from ``wait4``.  With ``--trace 1`` the sequence runs once untraced
and once with spans around microcav's layers (``traced_cli.py``); the
outputs of the two must be byte-identical, and the per-layer metrics come
from the spans and from ``-X importtime``.

Every command's outputs are checked against the seeded truth; a nonzero
exit or a failed check counts as a failed command.  The last line of
standard output is the result as JSON; the line before it records the
machine, the samples and any failures.  Working files live under
``.perfbench_work/`` and are removed at the end, except the spans of the
last traced run of each workload.

The benchmark's own tests: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from spans import METRICS, layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_PROBES = 3
# every run, its set-up included, ends well inside the 180 s a run may take
DEADLINE_S = 170.0
# what the ``microcav`` console script does
CLI = "import sys; from microcav.cli import main; sys.exit(main())"
# several CLI commands, given as a JSON list of argument lists, in one interpreter
CLI_MANY = ("import json, sys; from microcav.cli import main; "
            "sys.exit(max([main(a) for a in json.loads(sys.argv[1])], default=0))")


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    output: str


class Runner:
    """Starts child interpreters with the checkout's ``src`` on the path."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("MICROCAV_OUTDIR", None)  # outputs go to each command's working directory
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def run(self, args: list[str], cwd: Path) -> Outcome:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            output = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            tuple(args),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # KiB on Linux
            proc.returncode,
            output.decode(errors="replace"),
        )

    def cli(self, argv, cwd: Path) -> Outcome:
        return self.run([sys.executable, "-c", CLI, *argv], cwd)

    def traced_cli(self, argv, cwd: Path, spans_path: Path, command_id: str) -> Outcome:
        return self.run([sys.executable, str(HERE / "traced_cli.py"), str(spans_path), command_id, *argv], cwd)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def set_up(runner: Runner, workload: Workload, seed: int, work: Path) -> tuple[list[float], Path]:
    """Write the inputs SETUP_REPEATS times; (times, directory of the first copy).

    Each repeat is one fresh interpreter (the cold start) that runs the
    workload's input-writing CLI commands, or only imports ``microcav.cli``
    when there are none, plus whatever the workload derives from them.
    """
    times = []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        directory.mkdir()
        start = time.perf_counter()
        outcome = runner.run([sys.executable, "-c", CLI_MANY, json.dumps(workload.set_up(seed))], directory)
        if outcome.code != 0:
            raise SetupError(f"set-up exited {outcome.code}: {outcome.output[-2000:]}")
        if workload.derive is not None:
            workload.derive(directory, seed)
        times.append(time.perf_counter() - start)
        for name in workload.inputs:
            if not (directory / name).is_file():
                raise SetupError(f"set-up wrote no {name}")
        if i:
            shutil.rmtree(directory)
    return times, work / "setup0"


# --------------------------------------------------------------------------
# one pass over the command sequence
# --------------------------------------------------------------------------


@dataclass
class Sequence:
    wall_s: float
    outcomes: list[Outcome]
    problems: list[str]  # one entry per failed command


def run_sequence(runner: Runner, workload: Workload, seed: int, inputs: Path, directory: Path,
                 spans_dir: Path | None = None) -> Sequence:
    """Run every command of the workload in ``directory``, then check the outputs.

    The directory is emptied and given fresh copies of the inputs first, so
    a check never sees an earlier pass's files.  With ``spans_dir`` the
    commands run traced and each writes its spans there.
    """
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name in workload.inputs:
        shutil.copyfile(inputs / name, directory / name)
    commands = workload.commands(seed)
    outcomes = []
    start = time.perf_counter()
    for i, command in enumerate(commands):
        if spans_dir is None:
            outcomes.append(runner.cli(command.argv, directory))
        else:
            command_id = f"{i}:{command.argv[0]}"
            outcomes.append(runner.traced_cli(command.argv, directory, spans_dir / f"spans{i}.json", command_id))
    wall = time.perf_counter() - start
    problems = []
    for command, outcome in zip(commands, outcomes):
        if outcome.code != 0:
            found = [f"exit code {outcome.code}: {outcome.output[-500:]}"]
        else:
            try:
                found = command.check(directory)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"unreadable output: {exc!r}"]
        if found:
            problems.append(f"{' '.join(command.argv)}: {'; '.join(found)}")
    return Sequence(wall, outcomes, problems)


def _outputs(directory: Path, inputs: tuple[str, ...]) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.suffix in (".csv", ".json") and p.name not in inputs}


# --------------------------------------------------------------------------
# import breakdown and machine record
# --------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_times(runner: Runner, cwd: Path) -> dict[str, float]:
    """Median cumulative import seconds of microcav.cli and scipy.signal.

    Each probe is a fresh ``python -X importtime -c "import microcav.cli"``;
    scipy.signal counts 0 when importing the CLI no longer loads it.
    """
    samples: dict[str, list[float]] = {"microcav.cli": [], "scipy.signal": []}
    for _ in range(IMPORT_PROBES):
        outcome = runner.run([sys.executable, "-X", "importtime", "-c", "import microcav.cli"], cwd)
        if outcome.code != 0:
            raise SetupError(f"import probe failed: {outcome.output[-2000:]}")
        seen = {m.group(2): int(m.group(1)) for m in map(_IMPORT_LINE.match, outcome.output.splitlines()) if m}
        for name, values in samples.items():
            values.append(seen.get(name, 0) * 1e-6)
    return {name: statistics.median(values) for name, values in samples.items()}


def machine(runner: Runner) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = runner.run([sys.executable, "-c",
                       "import numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
                       "print(b.get('openblas configuration') or f\"{b.get('name')} {b.get('version')}\")"], ROOT)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas.output.strip() if blas.code == 0 else "unknown",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def measure(runner: Runner, workload: Workload, seed: int, seconds: float, inputs: Path, work: Path):
    """Repeat the sequence for ``seconds``; end-to-end metrics, counts, details."""
    walls: list[float] = []
    outcomes: list[Outcome] = []
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        seq = run_sequence(runner, workload, seed, inputs, work / "run")
        walls.append(seq.wall_s)
        outcomes += seq.outcomes
        problems += seq.problems
        # start another pass only if it should end within the measuring time
        next_end = time.perf_counter() + statistics.median(walls)
        if next_end - start > seconds or time.monotonic() + statistics.median(walls) > runner.deadline:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    per_command: dict[str, list[float]] = {}
    for o in outcomes:
        per_command.setdefault(" ".join(o.argv[3:]), []).append(o.wall_s)
    details = {
        "samples": len(walls),
        "sequence_wall_s": walls,
        "command_wall_s_median": {k: statistics.median(v) for k, v in per_command.items()},
    }
    return metrics, len(outcomes), problems, details


def trace(runner: Runner, workload: Workload, seed: int, inputs: Path, work: Path):
    """One untraced and one traced pass; per-layer metrics, counts, details."""
    plain = run_sequence(runner, workload, seed, inputs, work / "plain")
    spans_dir = work / "spans"
    spans_dir.mkdir()
    traced = run_sequence(runner, workload, seed, inputs, work / "traced", spans_dir)
    problems = plain.problems + [f"traced {p}" for p in traced.problems]
    identical = _outputs(work / "plain", workload.inputs) == _outputs(work / "traced", workload.inputs)
    if not identical:
        problems.append("traced outputs differ from the untraced run's")

    commands = []
    for i in range(len(traced.outcomes)):
        path = spans_dir / f"spans{i}.json"
        if path.is_file():
            commands.append(json.loads(path.read_text())["spans"])
    spans_file = WORK / f"spans-{workload.name}.json"
    spans_file.write_text(json.dumps(commands))

    metrics = layer_metrics(commands)
    imports = import_times(runner, inputs)
    metrics["cli.import_s"] = imports["microcav.cli"]
    metrics["cli.import_scipy_signal_s"] = imports["scipy.signal"]
    metrics["cli.cpu_s"] = sum(o.cpu_s for o in plain.outcomes)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.spans"] = sum(len(c) for c in commands)
    details = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "outputs_identical": identical,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, len(plain.outcomes) + len(traced.outcomes), problems, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "microcav" / "cli.py").is_file():
        print(f"perfbench: no microcav sources under {SRC}; run from the root of a microcav checkout", file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + DEADLINE_S)
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = machine(runner)
        setup_times, inputs = set_up(runner, workload, args.seed, work)
        if args.trace:
            metrics, attempted, problems, details = trace(runner, workload, args.seed, inputs, work)
        else:
            metrics, attempted, problems, details = measure(runner, workload, args.seed, args.seconds, inputs, work)
            metrics["setup_s"] = statistics.median(setup_times)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", **METRICS}
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": record,
        "setup_s_samples": setup_times,
        "error_rate": len(problems) / attempted,
        "failures": problems,
        **details,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
