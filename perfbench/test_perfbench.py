"""Self-test of the benchmark: a tiny-size pass over all four workloads, and
checks that corrupted outputs count as failures.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

import layertrace
import run
from workloads import N_WAY, Q_QUERY, DenoiseText, FewShot, StandardLarge, Theory, read_text, write_text

TINY = {
    "fewshot": FewShot(classes=6, per_class=25, dim=16, episodes=10),
    "standard-large": StandardLarge(per_class=100, dim=8),
    "denoise-text": DenoiseText(classes=4, per_class=30, dim=32),
    "theory": Theory(trials=50, m_values=(5, 20)),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", TINY)
def test_tiny_pass_prints_every_metric_with_its_unit(name, trace):
    result = run.run_workload(TINY[name], seed=3, seconds=0, trace=trace)
    assert (result["failed"], result["attempted"]) == (0, 4 if trace else 3)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    text = "\n".join(result["lines"])
    for metric, unit in expected.items():
        assert re.search(rf"^  {re.escape(metric)} +-?[0-9.]+ {re.escape(unit)}\b", text, re.M), metric
    assert re.search(rf"^  {TINY[name].work_name} +-?[0-9.]+ 1/s", text, re.M)
    assert re.search(r"^  error_rate +0\.0+ ratio", text, re.M)


def _edit_report(tmp, edit):
    path = os.path.join(tmp, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


def _edit_rows(tmp, edit):
    path = os.path.join(tmp, "out.csv")
    features, labels = read_text(path)
    features, labels = edit(features.copy(), labels.copy())
    write_text(path, features, labels)


def _one_query_less(report):
    report["without_filter"]["mean_accuracy"] -= 1.0 / (TINY["fewshot"].episodes * N_WAY * Q_QUERY)


def _swap_rows(features, labels):
    features[[0, 1]] = features[[1, 0]]
    return features, labels


def _set(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value


# Workload -> (corruption, words the check must report).
CORRUPTIONS = {
    "fewshot": [
        (lambda t: _edit_report(t, lambda r: _set(r, ["with_filter", "mean_accuracy"], 1.5)), "in [0, 1]"),
        (lambda t: _edit_report(t, _one_query_less), "pinned value"),
        (lambda t: _edit_report(t, lambda r: r.pop("with_filter")), "in [0, 1]"),
    ],
    "standard-large": [
        (lambda t: _edit_report(t, lambda r: _set(
            r, ["without_filter", "accuracy"], r["without_filter"]["accuracy"] - 0.025)), "pinned value"),
        (lambda t: _edit_report(t, lambda r: _set(r, ["with_filter", "accuracy"], -0.1)), "in [0, 1]"),
        (lambda t: _edit_report(t, lambda r: _set(r, ["train_rows"], 1)), "train_rows"),
    ],
    "denoise-text": [
        (lambda t: _edit_rows(t, lambda f, l: (np.where(f == f[3, 2], np.nan, f), l)), "non-finite"),
        (lambda t: _edit_rows(t, _swap_rows), "row order"),
        (lambda t: _edit_rows(t, lambda f, l: (f, np.where(np.arange(l.size) == 0, "x", l))), "labels"),
        (lambda t: _edit_rows(t, lambda f, l: (f * np.where(l == l[0], 2.0, 1.0)[:, None], l)), "Frobenius"),
        (lambda t: _edit_rows(t, lambda f, l: (f[:-1], l[:-1])), "shape"),
    ],
    "theory": [
        (lambda t: _edit_report(t, lambda r: _set(r["results"][0], ["monte_carlo", "mean_factor"], 1.001)),
         "mean factor"),
        (lambda t: _edit_report(t, lambda r: r["results"].pop()), "results cover"),
    ],
}


@pytest.mark.parametrize("name", TINY)
def test_checks_catch_corrupted_outputs(name, tmp_path):
    wl, tmp = TINY[name], str(tmp_path)
    expected = wl.prepare(tmp, seed=5)
    client = run.Client(tmp)
    cmd = [sys.executable, "-m", "gfdenoise.cli", *wl.argv(tmp, seed=5)]
    assert client.run(cmd, lambda: wl.check(tmp, expected)).ok
    for corrupt, words in CORRUPTIONS[name]:
        assert client.run(cmd).ok
        corrupt(tmp)
        assert words in " ".join(wl.check(tmp, expected)), words


def test_corrupted_output_counts_as_failed_run(monkeypatch):
    wl = TINY["theory"]
    calls = []
    honest = Theory.check

    def corrupt_second(self, tmp, expected):
        calls.append(tmp)
        if len(calls) == 2:
            _edit_report(tmp, lambda r: _set(r["results"][0], ["monte_carlo", "mean_factor"], 2.0))
        return honest(self, tmp, expected)

    monkeypatch.setattr(Theory, "check", corrupt_second)
    result = run.run_workload(wl, seed=3, seconds=1.5, trace=False)
    assert result["failed"] == 1 and result["attempted"] > 3
    assert any("mean factor" in line for line in result["lines"])


def test_missing_binding_is_named(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    monkeypatch.setattr(layertrace, "BINDINGS", {"spectral.eigendecompose": ("gfdenoise.cli",)})
    with pytest.raises(layertrace.BindingMissing, match=r"gfdenoise\.cli\.eigendecompose"):
        layertrace.Tracer().install()


def _trace(*spans, main_start=-0.1, dump_end=1.1):
    return {"main_start": main_start, "dump_end": dump_end, "spans": list(spans)}


def test_summary_rejects_inconsistent_spans():
    root = ["cli.run_cli", -1, 0.0, 1.0, False, None]
    with pytest.raises(layertrace.TraceError, match="not inside"):
        layertrace.summarize(_trace(root, ["spectral.eigendecompose", 0, 0.5, 1.5, False, None]), 1.5)
    with pytest.raises(layertrace.TraceError, match="overlaps its previous sibling"):
        layertrace.summarize(_trace(root, ["graphs.knn_sparsify", 0, 0.1, 0.6, False, None],
                                    ["spectral.eigendecompose", 0, 0.5, 0.9, False, None]), 1.5)
    with pytest.raises(layertrace.TraceError, match="single root"):
        layertrace.summarize(_trace(root, ["fileio.emit_report", -1, 1.0, 1.1, False, None]), 1.5)
    with pytest.raises(layertrace.TraceError, match="between the start of main"):
        layertrace.summarize(_trace(root, main_start=0.1), 1.5)
    with pytest.raises(layertrace.TraceError, match="longer than the wall"):
        layertrace.summarize(_trace(root), 1.1)
    layers = layertrace.summarize(_trace(root, ["spectral.eigendecompose", 0, 0.2, 0.7, False, None]), 1.5)
    assert layers["spectral.eigendecompose.self_s"] == pytest.approx(0.5)
    assert layers["cli.run_cli.self_s"] == pytest.approx(0.5)
    assert layers["trace.install_s"] == pytest.approx(0.1)
    assert layers["trace.dump_s"] == pytest.approx(0.1)
    assert layers["trace.startup_s"] == pytest.approx(0.3)
    assert layers["trace.untraced_s"] == pytest.approx(0.5)


def test_startup_must_match_the_separate_measurement():
    root = ["cli.run_cli", -1, 0.0, 1.0, False, None]
    layertrace.check_startup(layertrace.summarize(_trace(root), 1.5), startup_s=0.25)
    # Work outside the root span, such as heavy module imports, shows as
    # start-up time that a separately timed interpreter start does not have.
    with pytest.raises(layertrace.TraceError, match="0.9000 s for start-up.*calibrate.py took 0.2500 s"):
        layertrace.check_startup(layertrace.summarize(_trace(root), 2.1), startup_s=0.25)


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
