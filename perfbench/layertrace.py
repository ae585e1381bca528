"""Outside-in layer trace of one gfdenoise CLI run.

Run as `python perfbench/layertrace.py SPANS_OUT MODE [FLAGS...]`: it wraps
the public functions of each gfdenoise module at the names their callers
look up, runs `gfdenoise.cli.run_cli` on the remaining arguments, writes the
recorded spans to SPANS_OUT as JSON, with the times at which main() started
and the dump was serialized, and exits with the CLI's exit code.
Nothing under src/ is changed. A binding that no longer exists stops the
run with exit code 3 and names the binding.

`summarize` turns the spans of one run into per-layer metrics.
"""

import importlib
import json
import os
import sys
import time

import numpy as np

# Layer function -> the modules whose globals its callers look it up in.
BINDINGS = {
    "cli.run_cli": ("gfdenoise.cli",),
    "config.build_run_config": ("gfdenoise.cli",),
    "data.class_index_map": (
        "gfdenoise.data", "gfdenoise.denoise", "gfdenoise.classify", "gfdenoise.episodes",
    ),
    "data.stratified_split": ("gfdenoise.cli",),
    "episodes.paired_accuracies": ("gfdenoise.cli",),
    "episodes.sample_episode": ("gfdenoise.episodes",),
    "episodes.classify_episode": ("gfdenoise.episodes",),
    "classify.ncm_fit": ("gfdenoise.cli", "gfdenoise.episodes"),
    "classify.ncm_predict": ("gfdenoise.cli", "gfdenoise.episodes"),
    "classify.nn1_predict": ("gfdenoise.cli", "gfdenoise.episodes"),
    "denoise.denoise_dataset": ("gfdenoise.cli", "gfdenoise.episodes"),
    "denoise.denoise_class": ("gfdenoise.denoise",),
    "graphs.class_graph": ("gfdenoise.denoise", "gfdenoise.centroids"),
    "graphs.cosine_similarity": ("gfdenoise.graphs",),
    "graphs.knn_sparsify": ("gfdenoise.graphs",),
    "graphs.clamp_negative_edges": ("gfdenoise.graphs",),
    "graphs.complete_graph": ("gfdenoise.graphs",),
    "spectral.normalized_laplacian": ("gfdenoise.denoise", "gfdenoise.centroids"),
    "spectral.eigendecompose": ("gfdenoise.denoise", "gfdenoise.centroids"),
    "spectral.step_response": ("gfdenoise.denoise",),
    "spectral.apply_filter": ("gfdenoise.denoise", "gfdenoise.centroids"),
    "centroids.monte_carlo_centroid_stats": ("gfdenoise.centroids",),
    "centroids.sample_gaussian_class": ("gfdenoise.centroids",),
    "fileio.load_features": ("gfdenoise.cli",),
    "fileio.save_features": ("gfdenoise.cli",),
    "fileio.emit_report": ("gfdenoise.cli",),
}
ROOT = "cli.run_cli"
# Time spent computing the counters below; it is part of the trace overhead.
COUNTERS_SPAN = "trace.counters"
# Eigenvalues closer than this are treated as one repeated eigenvalue.
EIG_TOL = 1e-8
# The median interpreter start-up and exit of traced runs may exceed
# calibrate.py's time, which does the same imports, by this share of it
# plus STARTUP_SLACK_S. Freeing the spans at exit adds up to 0.1 s on a
# 2-vCPU VM; the bounds leave room for that and for the machine's noise, so
# only a trace that misses work fails.
STARTUP_RTOL = 1.0
STARTUP_SLACK_S = 0.15


def _eigendecompose_counts(args, kwargs, basis):
    lam = basis.eigenvalues
    return {
        "spectral.eigendecompose.m3": lam.size ** 3,
        "spectral.eigendecompose.disconnected": int(np.count_nonzero(lam <= EIG_TOL) > 1),
    }


def _apply_filter_counts(args, kwargs, result):
    """A cut is degenerate when the gain changes between two eigenvalues
    that are equal within EIG_TOL."""
    basis, gains = args[0], np.asarray(args[1])
    cuts = np.flatnonzero(np.diff(gains) != 0.0)
    gaps = np.diff(basis.eigenvalues)[cuts]
    return {"spectral.degenerate_cuts": int(np.any(gaps <= EIG_TOL))}


def _clamp_counts(args, kwargs, clamped):
    W = np.asarray(args[0])
    return {"graphs.clamp_negative_edges.restored":
            int(np.count_nonzero(np.triu((clamped > 0.0) & (W <= 0.0))))}


def _file_bytes(name, position):
    def counts(args, kwargs, result):
        return {name: os.path.getsize(args[position])}
    return counts


# Layer function -> counts read from its arguments and return value.
COUNTERS = {
    "spectral.eigendecompose": _eigendecompose_counts,
    "spectral.apply_filter": _apply_filter_counts,
    "graphs.knn_sparsify": lambda a, k, r: {"graphs.knn_sparsify.entries": r.size},
    "graphs.clamp_negative_edges": _clamp_counts,
    "denoise.denoise_dataset": lambda a, k, r: {"denoise.classes": np.unique(a[0].labels).size},
    "fileio.load_features": _file_bytes("fileio.load_features.bytes", 0),
    "fileio.save_features": _file_bytes("fileio.save_features.bytes", 0),
    "fileio.emit_report": _file_bytes("fileio.emit_report.bytes", 1),
}
# Every counter with its unit; a counter that no call produced reads 0.
COUNTER_UNITS = {
    "spectral.eigendecompose.m3": "m3",
    "spectral.eigendecompose.disconnected": "count",
    "spectral.degenerate_cuts": "count",
    "graphs.knn_sparsify.entries": "count",
    "graphs.clamp_negative_edges.restored": "count",
    "denoise.passthrough": "count",
    "fileio.load_features.bytes": "B",
    "fileio.save_features.bytes": "B",
    "fileio.emit_report.bytes": "B",
}


class BindingMissing(Exception):
    pass


class Tracer:
    """Spans kept in memory as [layer, parent index, start, end, failed,
    counts]; parent -1 marks a span started outside every other span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self) -> None:
        for layer, sites in BINDINGS.items():
            module_name, func = layer.split(".")
            if not callable(getattr(importlib.import_module("gfdenoise." + module_name), func, None)):
                raise BindingMissing(f"gfdenoise.{layer} no longer exists")
            for site in sites:
                module = importlib.import_module(site)
                original = getattr(module, func, None)
                if not callable(original):
                    raise BindingMissing(f"binding {site}.{func} no longer exists")
                setattr(module, func, self._wrap(layer, original, COUNTERS.get(layer)))

    def _wrap(self, layer, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                counts = None
                if counter is not None and not failed:
                    counts = counter(args, kwargs, result)
                    spans.append([COUNTERS_SPAN, parent, end, clock(), False, None])
                spans[index] = [layer, parent, start, end, failed, counts]

        return traced

    def dump(self, path, main_start: float) -> None:
        spans = json.dumps(self.spans)
        dump_end = time.perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"main_start": {main_start!r}, "dump_end": {dump_end!r}, "spans": {spans}}}')


class TraceError(Exception):
    pass


def summarize(trace: dict, wall_s: float) -> dict:
    """Per-layer calls, self time, errors and counters of one traced run.

    Self time is a span's duration minus its children's. Every span must
    lie inside its parent, after its previous sibling, and descend from one
    root span, so no self time is negative. wall_s is the run's wall time
    measured outside the process; trace.startup_s is what remains of it
    besides main() (install, layers, dump): the interpreter's start-up and
    exit, which check_startup compares with a separate measurement.
    """
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    last_end = {}
    roots = []
    for i, (name, parent, start, end, _, _) in enumerate(spans):
        if end < start:
            raise TraceError(f"span {name} ends before it starts")
        if start < last_end.get(parent, -float("inf")):
            raise TraceError(f"span {name} overlaps its previous sibling")
        last_end[parent] = end
        if parent < 0:
            roots.append(i)
            continue
        p = spans[parent]
        if start < p[2] or end > p[3]:
            raise TraceError(f"span {name} is not inside its parent {p[0]}")
        child_s[parent] += end - start
    if [spans[i][0] for i in roots] != [ROOT]:
        raise TraceError(f"expected the single root span {ROOT}, found {[spans[i][0] for i in roots]}")
    metrics = {}
    for layer in BINDINGS:
        metrics.update({f"{layer}.calls": 0, f"{layer}.self_s": 0.0, f"{layer}.errors": 0})
    metrics.update({name: 0 for name in COUNTER_UNITS})
    metrics.update({f"{COUNTERS_SPAN}.self_s": 0.0, "denoise.classes": 0})
    for i, (name, parent, start, end, failed, counts) in enumerate(spans):
        metrics[f"{name}.self_s"] += end - start - child_s[i]
        if name == COUNTERS_SPAN:
            continue
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.errors"] += int(failed)
        for key, value in (counts or {}).items():
            metrics[key] += value
    filtered = sum(
        1 for name, parent, *_ in spans
        if name == "spectral.apply_filter" and parent >= 0 and spans[parent][0] == "denoise.denoise_class"
    )
    metrics["denoise.passthrough"] = metrics.pop("denoise.classes") - filtered
    _, _, root_start, root_end, _, _ = spans[roots[0]]
    metrics["trace.install_s"] = root_start - trace["main_start"]
    metrics["trace.dump_s"] = trace["dump_end"] - root_end
    metrics["trace.startup_s"] = wall_s - (trace["dump_end"] - trace["main_start"])
    metrics["trace.untraced_s"] = wall_s - (root_end - root_start)
    if metrics["trace.install_s"] < 0.0 or metrics["trace.dump_s"] < 0.0:
        raise TraceError("the root span does not lie between the start of main() and the dump")
    if metrics["trace.startup_s"] < 0.0:
        raise TraceError(f"main() took longer than the wall time {wall_s:.6f} s")
    metrics["trace.errors"] = sum(metrics[f"{layer}.errors"] for layer in BINDINGS)
    return metrics


def check_startup(layers: dict, startup_s: float) -> None:
    """The layer self times, the tracer's install and dump time and the
    interpreter's start-up and exit add up to the wall time of a traced
    run: its start-up and exit (median over runs) must not exceed
    startup_s, the time of calibrate.py measured in other processes, by
    more than STARTUP_RTOL and STARTUP_SLACK_S allow."""
    if layers["trace.startup_s"] - startup_s > STARTUP_RTOL * startup_s + STARTUP_SLACK_S:
        raise TraceError(
            f"traced wall time minus install, layers and dump leaves "
            f"{layers['trace.startup_s']:.4f} s for start-up and exit, but calibrate.py "
            f"took {startup_s:.4f} s"
        )


def main(argv) -> int:
    main_start = time.perf_counter()
    spans_out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    try:
        tracer.install()
    except BindingMissing as exc:
        print(f"layertrace: {exc}", file=sys.stderr)
        return 3
    import gfdenoise.cli

    code = gfdenoise.cli.run_cli(cli_argv)
    tracer.dump(spans_out, main_start)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
