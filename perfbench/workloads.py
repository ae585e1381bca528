"""The four benchmark workloads: seeded inputs, CLI arguments, reference
values and output checks.

Inputs are generated here with numpy and written in the text and binary
formats the README documents, without importing gfdenoise, so a change to
the package cannot change what it is measured on. The raw (without-filter)
arm of each evaluation is recomputed here by an independent implementation
of the documented sampling and classification, which pins its value per
seed.
"""

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"GFDENSE1"
# Largest relative growth of a class's Frobenius norm that counts as
# round-off: a step filter with gains in [0, 1] on an orthonormal basis is a
# contraction.
NORM_RTOL = 1e-9
# verify-theory's measured mean factor is exactly 1 up to round-off.
MEAN_FACTOR_TOL = 1e-6
# Episode shape of the fewshot workload: 5-way 5-shot 15-query.
N_WAY, M_SHOT, Q_QUERY = 5, 5, 15
# Classes of the standard-large workload.
LARGE_CLASSES = 2
# Share of each class held out by eval-standard; mirrors the fixed 0.2
# split of the CLI, which has no flag for it.
TEST_FRACTION = 0.2


def gaussian_pool(n_classes: int, per_class: int, dim: int, seed: int, separation: float = 4.0):
    """Unit-variance isotropic Gaussian classes whose means lie about
    `separation` apart; labels are zero-padded `c<k>` strings in class order."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, dim)) * (separation / np.sqrt(2.0 * dim))
    features = np.repeat(means, per_class, axis=0)
    features += rng.standard_normal(features.shape)
    width = len(str(n_classes - 1))
    labels = np.repeat([f"c{c:0{width}d}" for c in range(n_classes)], per_class)
    return features, labels


def write_binary(path, features: np.ndarray, labels: np.ndarray) -> None:
    encoded = [str(label).encode("ascii") for label in labels]
    width = max(len(b) for b in encoded)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sQQI", MAGIC, features.shape[0], features.shape[1], width))
        fh.write(b"".join(b.ljust(width, b"\0") for b in encoded))
        fh.write(np.ascontiguousarray(features, dtype="<f8").tobytes())


def write_text(path, features: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels.tolist(), features.tolist()):
            fh.write(label + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def read_text(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",", 1) for line in fh if not line.startswith("#")]
    labels = np.asarray([row[0] for row in rows])
    features = np.asarray([np.array(row[1].split(","), dtype=np.float64) for row in rows])
    return features, labels


def _unit_rows(A: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(A, axis=1)
    return A / np.where(norms == 0.0, 1.0, norms)[:, None]


def _report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _accuracy_problems(report: dict, keys) -> list[str]:
    problems = []
    for arm, field in keys:
        value = report.get(arm, {}).get(field)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"{arm}.{field} = {value!r} is not an accuracy in [0, 1]")
    return problems


@dataclass(frozen=True)
class FewShot:
    """eval-fewshot: NCM/cosine over many 5-row class graphs per run."""

    name: str = "fewshot"
    work_name: str = "episodes_per_s"
    classes: int = 20
    per_class: int = 100
    dim: int = 64
    episodes: int = 1000

    @property
    def work(self) -> int:
        return self.episodes

    def prepare(self, tmp: str, seed: int) -> dict:
        features, labels = gaussian_pool(self.classes, self.per_class, self.dim, seed)
        write_binary(os.path.join(tmp, "pool.bin"), features, labels)
        _write_config(tmp, "classifier.kind = ncm")
        return {"raw_correct": self.raw_correct(features, labels, seed)}

    def argv(self, tmp: str, seed: int) -> list[str]:
        return [
            "eval-fewshot", "--in", os.path.join(tmp, "pool.bin"), "--format", "bin",
            "--config", os.path.join(tmp, "run.cfg"), "--metric", "cosine", "--graph", "knn",
            "--n-way", str(N_WAY), "--m-shot", str(M_SHOT),
            "--q-query", str(Q_QUERY), "--knn-k", "10", "--k1", "1", "--k2", "4",
            "--mid-gain", "0.6", "--iterations", str(self.episodes), "--seed", str(seed),
            "--out", os.path.join(tmp, "report.json"),
        ]

    def raw_correct(self, features: np.ndarray, labels: np.ndarray, seed: int) -> int:
        """Correct raw-arm query predictions over all episodes: episodes drawn
        from per-episode spawned seeds (classes, then rows per class, without
        replacement), classified by nearest cosine class mean."""
        index = [np.flatnonzero(labels == c) for c in np.unique(labels)]
        need = M_SHOT + Q_QUERY
        truth = np.repeat(np.arange(N_WAY), Q_QUERY)
        correct = 0
        for child in np.random.SeedSequence(seed).spawn(self.episodes):
            rng = np.random.default_rng(child)
            chosen = rng.choice(len(index), size=N_WAY, replace=False)
            picks = [index[c][rng.choice(index[c].size, size=need, replace=False)] for c in chosen]
            means = np.stack([features[p[:M_SHOT]].mean(axis=0) for p in picks])
            query = np.concatenate([features[p[M_SHOT:]] for p in picks])
            dist = 1.0 - _unit_rows(query) @ _unit_rows(means).T
            correct += int(np.count_nonzero(np.argmin(dist, axis=1) == truth))
        return correct

    def check(self, tmp: str, expected: dict) -> list[str]:
        report = _report(os.path.join(tmp, "report.json"))
        keys = [(arm, "mean_accuracy") for arm in ("without_filter", "with_filter")]
        problems = _accuracy_problems(report, keys)
        if problems:
            return problems
        for arm in ("without_filter", "with_filter"):
            if report[arm].get("iterations") != self.episodes:
                problems.append(f"{arm}.iterations != {self.episodes}")
        queries = self.episodes * N_WAY * Q_QUERY
        got = round(report["without_filter"]["mean_accuracy"] * queries)
        if got != expected["raw_correct"]:
            problems.append(
                f"without_filter has {got} correct queries, pinned value {expected['raw_correct']}"
            )
        delta = report.get("paired_delta", {}).get("mean")
        arms = report["with_filter"]["mean_accuracy"] - report["without_filter"]["mean_accuracy"]
        if not isinstance(delta, float) or abs(delta - arms) > 1e-9:
            problems.append(f"paired_delta.mean = {delta!r} != with - without = {arms}")
        return problems

    def gain_pts(self, tmp: str) -> float:
        return 100.0 * _report(os.path.join(tmp, "report.json"))["paired_delta"]["mean"]


@dataclass(frozen=True)
class StandardLarge:
    """eval-standard: 1-NN/euclidean after filtering a few large classes."""

    name: str = "standard-large"
    work_name: str = "rows_per_s"
    per_class: int = 2000
    dim: int = 128

    @property
    def work(self) -> int:
        return LARGE_CLASSES * self.per_class

    def prepare(self, tmp: str, seed: int) -> dict:
        features, labels = gaussian_pool(LARGE_CLASSES, self.per_class, self.dim, seed)
        write_binary(os.path.join(tmp, "data.bin"), features, labels)
        _write_config(tmp, "classifier.kind = nn1")
        return self.raw_split_correct(features, labels, seed)

    def argv(self, tmp: str, seed: int) -> list[str]:
        return [
            "eval-standard", "--in", os.path.join(tmp, "data.bin"), "--format", "bin",
            "--config", os.path.join(tmp, "run.cfg"), "--metric", "euclidean", "--graph", "knn",
            "--knn-k", "10", "--k1", "20", "--k2", "55", "--mid-gain", "0.6",
            "--seed", str(seed), "--out", os.path.join(tmp, "report.json"),
        ]

    def raw_split_correct(self, features: np.ndarray, labels: np.ndarray, seed: int) -> dict:
        """Raw-arm 1-NN result on the documented 80/20 stratified split: per
        class in sorted label order, a seeded permutation whose first
        round(0.2 m) rows are held out."""
        rng = np.random.default_rng(seed)
        train, test = [], []
        for c in np.unique(labels):
            idx = np.flatnonzero(labels == c)
            perm = idx[rng.permutation(idx.size)]
            n_test = min(int(round(idx.size * TEST_FRACTION)), idx.size - 1)
            test.append(perm[:n_test])
            train.append(perm[n_test:])
        train, test = np.sort(np.concatenate(train)), np.sort(np.concatenate(test))
        A, B = features[test], features[train]
        sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
        pred = labels[train][np.argmin(np.sqrt(np.clip(sq, 0.0, None)), axis=1)]
        return {
            "raw_correct": int(np.count_nonzero(pred == labels[test])),
            "train_rows": int(train.size),
            "test_rows": int(test.size),
        }

    def check(self, tmp: str, expected: dict) -> list[str]:
        report = _report(os.path.join(tmp, "report.json"))
        keys = [(arm, "accuracy") for arm in ("without_filter", "with_filter")]
        problems = _accuracy_problems(report, keys)
        if problems:
            return problems
        for field in ("train_rows", "test_rows"):
            if report.get(field) != expected[field]:
                problems.append(f"{field} = {report.get(field)!r}, expected {expected[field]}")
        got = round(report["without_filter"]["accuracy"] * expected["test_rows"])
        if got != expected["raw_correct"]:
            problems.append(
                f"without_filter has {got} correct rows, pinned value {expected['raw_correct']}"
            )
        arms = report["with_filter"]["accuracy"] - report["without_filter"]["accuracy"]
        if not isinstance(report.get("delta"), float) or abs(report["delta"] - arms) > 1e-9:
            problems.append(f"delta = {report.get('delta')!r} != with - without = {arms}")
        return problems

    def gain_pts(self, tmp: str) -> float:
        return 100.0 * _report(os.path.join(tmp, "report.json"))["delta"]


@dataclass(frozen=True)
class DenoiseText:
    """denoise: text in, text out, over many mid-sized classes."""

    name: str = "denoise-text"
    work_name: str = "rows_per_s"
    classes: int = 200
    per_class: int = 50
    dim: int = 128

    @property
    def work(self) -> int:
        return self.classes * self.per_class

    def prepare(self, tmp: str, seed: int) -> dict:
        features, labels = gaussian_pool(self.classes, self.per_class, self.dim, seed)
        write_text(os.path.join(tmp, "in.csv"), features, labels)
        return {"features": features, "labels": labels}

    def argv(self, tmp: str, seed: int) -> list[str]:
        return [
            "denoise", "--in", os.path.join(tmp, "in.csv"), "--out", os.path.join(tmp, "out.csv"),
            "--graph", "knn", "--knn-k", "10", "--k1", "20", "--k2", "55", "--mid-gain", "0.6",
        ]

    def check(self, tmp: str, expected: dict) -> list[str]:
        try:
            out, labels = read_text(os.path.join(tmp, "out.csv"))
        except ValueError as exc:
            return [f"output does not parse: {exc}"]
        F, want = expected["features"], expected["labels"]
        if out.shape != F.shape or not np.array_equal(labels, want):
            return [f"output has shape {out.shape} or labels unlike the input's {F.shape}"]
        if not np.all(np.isfinite(out)):
            return ["output has non-finite values"]
        problems = []
        for c in np.unique(want):
            idx = np.flatnonzero(want == c)
            if np.linalg.norm(out[idx]) > np.linalg.norm(F[idx]) * (1.0 + NORM_RTOL):
                problems.append(f"class {c}: Frobenius norm increased")
            # Filtering moves a row far less than the distance between two
            # rows of a class, so each output row stays nearest its own input.
            dist = np.linalg.norm(out[idx][:, None, :] - F[idx][None, :, :], axis=2)
            if not np.array_equal(np.argmin(dist, axis=1), np.arange(idx.size)):
                problems.append(f"class {c}: row order changed")
        return problems

    def gain_pts(self, tmp: str) -> None:
        return None


@dataclass(frozen=True)
class Theory:
    """verify-theory: Monte Carlo centroid statistics on the complete graph."""

    name: str = "theory"
    work_name: str = "trials_per_s"
    trials: int = 10_000
    m_values: tuple[int, ...] = (5, 20, 100)

    @property
    def work(self) -> int:
        return self.trials * len(self.m_values)

    def prepare(self, tmp: str, seed: int) -> dict:
        _write_config(tmp, "theory.m_values = " + ",".join(map(str, self.m_values)))
        return {}

    def argv(self, tmp: str, seed: int) -> list[str]:
        return [
            "verify-theory", "--config", os.path.join(tmp, "run.cfg"), "--graph", "complete",
            "--iterations", str(self.trials), "--seed", str(seed),
            "--out", os.path.join(tmp, "report.json"),
        ]

    def check(self, tmp: str, expected: dict) -> list[str]:
        results = _report(os.path.join(tmp, "report.json")).get("results", [])
        if [r.get("m") for r in results] != list(self.m_values):
            return [f"results cover m = {[r.get('m') for r in results]}, expected {list(self.m_values)}"]
        problems = []
        for r in results:
            mc = r.get("monte_carlo", {})
            factor = mc.get("mean_factor")
            if not isinstance(factor, float) or not abs(factor - 1.0) <= MEAN_FACTOR_TOL:
                problems.append(f"m={r['m']}: measured mean factor {factor!r} is not 1")
            if mc.get("raw", {}).get("trials") != self.trials:
                problems.append(f"m={r['m']}: trials != {self.trials}")
            if not isinstance(r.get("analytic", {}).get("mean_factor"), float):
                problems.append(f"m={r['m']}: analytic mean factor missing")
        return problems

    def gain_pts(self, tmp: str) -> None:
        return None


def _write_config(tmp: str, line: str) -> None:
    """Settings without a flag (classifier.kind, theory.m_values) go through
    a config file."""
    with open(os.path.join(tmp, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")


WORKLOADS = {w.name: w for w in (FewShot(), StandardLarge(), DenoiseText(), Theory())}
