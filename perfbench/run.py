"""Benchmark of the gfdenoise CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from its src/.
A closed loop with one client runs one `python -m gfdenoise.cli ...`
subprocess at a time on inputs generated from --seed (see workloads.py),
checks every output, and prints each metric by name with its unit. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off:
  wall_s       median wall time of one CLI run
  setup_s      median wall time of a no-work invocation (interpreter start,
               imports, argument parsing and config), one before each run
  work_per_s   the workload's work (episodes, rows or trials) divided by
               wall_s - setup_s
  peak_rss_mb  median of each run's maximum resident set size
wall_s and setup_s are in reference seconds: each no-work invocation is
preceded by CALIBRATIONS_PER_RUN runs of calibrate.py, a fixed script that
starts Python and imports numpy without using gfdenoise, and both medians
are scaled by CALIBRATION_REF_S / (its median time). The speed of a shared machine drifts
by 20-30% over minutes; the drift moves the script's time alike and
cancels. Raw medians are printed too.
--trace 1 spends half of --seconds on untraced runs and half on runs under
layertrace.py, and reports per-layer medians plus trace.overhead_s (traced
minus untraced median wall time).

Every workload run is preceded by one calibration and one checked warm-up
run that are not timed. Inputs, reports and spans go to .perfbench/ in the
checkout, which is removed except for the result record in
.perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layertrace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS threads per CLI run: a fixed count no larger than the machine's, so
# results from machines of different sizes stay comparable.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
RUN_TIMEOUT_S = 150.0
# Time of calibrate.py on the machine the reference seconds refer to (2 vCPU
# x86-64 VM, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.23
# One start of calibrate.py varies by about 12% from the next, more than a
# workload run (5-10%), so each run gets several to keep the scale steady.
CALIBRATIONS_PER_RUN = 3
END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in layertrace.BINDINGS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **layertrace.COUNTER_UNITS,
    "trace.overhead_s": "s",
    "trace.untraced_s": "s",
    "trace.errors": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Run:
    """One CLI subprocess: wall time, peak RSS, exit code and output problems."""

    wall_s: float
    rss_mb: float
    code: int
    problems: list

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


class Client:
    """Runs CLI invocations one at a time inside a scratch directory."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
            PYTHONHASHSEED="0",
            TMPDIR=tmp,
        )
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def launch(self, cmd) -> dict:
        """Wall time, peak RSS and exit code of cmd, run to completion."""
        with open(os.path.join(self.tmp, "stderr.txt"), "wb") as err:
            launched = subprocess.run(
                [sys.executable, str(HERE / "launch.py"), str(RUN_TIMEOUT_S), *cmd],
                cwd=self.tmp, env=self.env, stdout=subprocess.PIPE, stderr=err, check=True,
            )
        return json.loads(launched.stdout)

    def calibrate(self) -> float:
        measured = self.launch([sys.executable, str(HERE / "calibrate.py")])
        if measured["code"] != 0:
            raise BenchError(f"calibrate.py exited with code {measured['code']}")
        return measured["wall_s"]

    def run(self, cmd, check=None) -> Run:
        """Run cmd to completion and check its output; a non-zero exit or a
        failed check counts as a failed run."""
        self.attempted += 1
        measured = self.launch(cmd)
        problems = []
        if measured["code"] != 0:
            with open(os.path.join(self.tmp, "stderr.txt"), "rb") as err:
                tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {measured['code']}: {' '.join(tail)}")
        elif check is not None:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.messages.append(f"{cmd[3]}: {'; '.join(problems)}")
        return Run(measured["wall_s"], measured["rss_mb"], measured["code"], problems)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def provenance(seed: int) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout; "none" when it is not a git repository. The
    search for a repository stops at the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def timed_loop(client: Client, seconds: float, cmd, check, probe):
    """Closed loop: run cmd back to back until `seconds` have passed (at
    least once), each run preceded by calibrations and the no-work probe."""
    runs, probes, calibrations = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        calibrations += [client.calibrate() for _ in range(CALIBRATIONS_PER_RUN)]
        probes.append(client.run(*probe))
        runs.append(client.run(cmd, check))
    return runs, probes, calibrations



def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the human-readable lines, the metrics
    of the requested kind, the run counts and the full record."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch)
    try:
        return _measure(wl, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(wl, seed, seconds, trace, tmp) -> dict:
    client = Client(tmp)
    expected = wl.prepare(tmp, seed)
    cli = [sys.executable, "-m", "gfdenoise.cli"]
    cmd = cli + wl.argv(tmp, seed)
    check = lambda: wl.check(tmp, expected)  # noqa: E731

    nowork_cfg = os.path.join(tmp, "nowork.cfg")
    with open(nowork_cfg, "w", encoding="utf-8") as fh:
        fh.write("theory.m_values =\n")
    nowork_out = os.path.join(tmp, "nowork.json")
    probe = (cli + ["verify-theory", "--config", nowork_cfg, "--out", nowork_out],
             lambda: _nowork_problems(nowork_out))

    client.calibrate()
    warm = client.run(cmd, check)
    if not warm.ok:
        raise BenchError(f"{wl.name}: warm-up run failed: {client.messages[-1]}")
    # A traced run splits its time between untraced and traced runs, so it
    # takes as long as an untraced one.
    runs, probes, calibrations = timed_loop(client, seconds / 2 if trace else seconds, cmd, check, probe)
    if not any(p.ok for p in probes) or not any(r.ok for r in runs):
        raise BenchError(f"{wl.name}: every timed run failed: {client.messages[-1]}")
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    raw_wall = quartiles([r.wall_s for r in runs if r.ok])
    raw_setup = quartiles([p.wall_s for p in probes if p.ok])
    wall = [t * scale for t in raw_wall]
    setup = [t * scale for t in raw_setup]
    rss = quartiles([r.rss_mb for r in runs if r.ok])
    gain = wl.gain_pts(tmp)
    e2e = {
        "wall_s": wall[1],
        "setup_s": setup[1],
        "work_per_s": wl.work / (wall[1] - setup[1]),
        "peak_rss_mb": rss[1],
    }
    lines = [
        f"workload {wl.name}  seed {seed}  timed runs {len(runs)} (+1 warm-up)  "
        f"blas threads {BLAS_THREADS}",
        _line("wall_s", wall[1], "s", f"q1 {wall[0]:.4f}  q3 {wall[2]:.4f}  n={len(runs)}  "
              f"raw median {raw_wall[1]:.4f} s"),
        _line("setup_s", setup[1], "s", f"q1 {setup[0]:.4f}  q3 {setup[2]:.4f}  n={len(probes)}  "
              f"raw median {raw_setup[1]:.4f} s"),
        _line("calibration_s", statistics.median(calibrations), "s",
              f"reference {CALIBRATION_REF_S} s, n={len(calibrations)}"),
        _line("work_per_s", e2e["work_per_s"], "1/s", f"{wl.work} per run / (wall_s - setup_s)"),
        _line(wl.work_name, e2e["work_per_s"], "1/s", "= work_per_s"),
        _line("peak_rss_mb", rss[1], "MB", f"q1 {rss[0]:.1f}  q3 {rss[2]:.1f}  n={len(runs)}"),
    ]
    record = {"workload": wl.name, "end_to_end": e2e, "raw_wall_s_samples": [r.wall_s for r in runs],
              "raw_setup_s_samples": [p.wall_s for p in probes], "calibration_s_samples": calibrations}
    if gain is not None:
        lines.append(_line("filter_gain_pts", gain, "pts", "with filter minus without"))
        record["filter_gain_pts"] = gain
    metrics = e2e
    if trace:
        layers, traced_wall = _trace(client, wl, seed, seconds / 2, tmp, check,
                                     statistics.median(calibrations))
        layers["trace.overhead_s"] = traced_wall - raw_wall[1]
        record["per_layer"] = layers
        lines += _layer_lines(layers, traced_wall)
        metrics = {name: layers[name] for name in PER_LAYER}
    lines.append(_line("error_rate", client.failed / client.attempted, "ratio",
                       f"{client.failed} failed of {client.attempted} runs"))
    lines += [f"  failure: {m}" for m in client.messages]
    unit = PER_LAYER if trace else END_TO_END
    return {
        "lines": lines,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
        "attempted": client.attempted,
        "failed": client.failed,
        "record": record,
    }


def _trace(client, wl, seed, seconds, tmp, check, startup_s):
    """Traced runs for `seconds` (at least one); per-layer metrics are the
    medians over the runs, traced wall time is their median. startup_s is
    the median time of calibrate.py, against which the runs' interpreter
    start-up and exit is checked."""
    spans_path = os.path.join(tmp, "spans.json")
    cmd = [sys.executable, str(HERE / "layertrace.py"), spans_path] + wl.argv(tmp, seed)
    per_run, walls, attempts = [], [], 0
    start = time.perf_counter()
    while not attempts or time.perf_counter() - start < seconds:
        attempts += 1
        run = client.run(cmd, check)
        if run.code == 3:
            raise BenchError(f"{wl.name}: {client.messages[-1]}")
        if run.ok:
            with open(spans_path, "r", encoding="utf-8") as fh:
                spans = json.load(fh)
            try:
                per_run.append(layertrace.summarize(spans, run.wall_s))
            except layertrace.TraceError as exc:
                raise BenchError(f"{wl.name}: inconsistent trace: {exc}") from exc
            walls.append(run.wall_s)
    if not per_run:
        raise BenchError(f"{wl.name}: every traced run failed: {client.messages[-1]}")
    layers = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    try:
        layertrace.check_startup(layers, startup_s)
    except layertrace.TraceError as exc:
        raise BenchError(f"{wl.name}: inconsistent trace: {exc}") from exc
    return layers, statistics.median(walls)


def _layer_lines(layers: dict, traced_wall: float) -> list[str]:
    ranked = sorted(layertrace.BINDINGS, key=lambda l: layers[f"{l}.self_s"], reverse=True)
    lines = [f"per layer, busiest first (traced wall {traced_wall:.4f} s)"]
    for layer in ranked:
        share = 100 * layers[f"{layer}.self_s"] / traced_wall
        lines.append(_line(f"{layer}.self_s", layers[f"{layer}.self_s"], "s", f"{share:.1f}% of traced wall"))
        lines.append(_line(f"{layer}.calls", layers[f"{layer}.calls"], "count", ""))
        lines.append(_line(f"{layer}.errors", layers[f"{layer}.errors"], "count", ""))
    for name in (*layertrace.COUNTER_UNITS, "trace.counters.self_s", "trace.install_s",
                 "trace.dump_s", "trace.startup_s", "trace.untraced_s",
                 "trace.overhead_s", "trace.errors"):
        lines.append(_line(name, layers[name], PER_LAYER.get(name, "s"), ""))
    modules = {}
    for layer in layertrace.BINDINGS:
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + layers[f"{layer}.self_s"]
    lines.append("  self time by module: " + ", ".join(
        f"{m} {t:.3f} s" for m, t in sorted(modules.items(), key=lambda kv: -kv[1])))
    return lines


def _line(name, value, unit, note) -> str:
    return f"  {name:<44} {value:14.6f} {unit:<6} {note}".rstrip()


def _nowork_problems(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        results = json.load(fh).get("results")
    return [] if results == [] else [f"no-work invocation produced results {results!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gfdenoise" / "cli.py").is_file():
        print(f"perfbench: no gfdenoise package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    results = {}
    for name in names:
        try:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(results[name]["lines"]), flush=True)
        out = ROOT / ".perfbench" / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"provenance": prov, **results[name]["record"]}, indent=1))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
