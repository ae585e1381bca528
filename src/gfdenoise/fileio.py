"""Feature-file formats and report emission.

Text format: one `label,v1,...,vd` row per line. Each line is stripped
of surrounding whitespace; blank lines and lines starting with `#` are
skipped. The label is everything before the first comma, and each value
follows Python float() syntax, surrounding whitespace included. Values are
written as `%.17g`, so float64 round-trips exactly. A label that holds a
comma or a line break, or starts with `#` or whitespace, would not read
back as itself, so save_features_text rejects it before opening the file,
as it does a matrix of zero columns, whose `label,` lines would not load.
Text costs far more than binary: at 50,000 x 128 (2-core machine), text
took about 5.5 s to save and 3.4 s to load, binary 0.1-0.2 s each.

Binary format (all integers little-endian):

    offset  size      content
    0       8         magic "GFDENSE1"
    8       8         n, row count (u64)
    16      8         d, feature dimension (u64)
    24      4         label_width, bytes per label record (u32)
    28      n*width   labels, UTF-8 zero-padded to label_width
    ...     n*d*8     features, IEEE-754 float64, row-major

Binary I/O holds no copy of the feature payload: load_features_binary
reads it straight into the array it returns, and save_features_binary
writes it from the array's own buffer.

Both loaders reject NaN and infinite feature values.

Reports are JSON documents; emit_report/load_report round-trip floats
exactly.
"""

import json
import struct
from array import array
from itertools import chain

import numpy as np

from .data import LabeledFeatures
from .errors import BadMagic, InconsistentDimension, NonFiniteValue, ParseError, TruncatedFile

FORMATS = ("text", "bin")
MAGIC = b"GFDENSE1"
_HEADER = struct.Struct("<8sQQI")
# ASCII separators that np.loadtxt strips from a value as whitespace but
# float() rejects; a line holding one is left to the per-line parser.
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def _check_finite(features: np.ndarray, linenos: array | None = None) -> None:
    """Raise NonFiniteValue naming the first row (or its line) holding a
    NaN or infinity."""
    # min and max are NaN or infinite exactly when some value is, and
    # unlike np.isfinite they allocate no array the size of the input.
    if features.size and not (np.isfinite(features.min()) and np.isfinite(features.max())):
        row = int(np.argmin(np.isfinite(features).all(axis=1)))
        raise NonFiniteValue(row, None if linenos is None else linenos[row])


def _data_lines(fh, labels: list, linenos: array):
    """Yield the values part of each data line of fh, appending its label
    and line number; raise ValueError at a line the bulk parse must not
    take, so that the per-line parser names what is wrong with it."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, _, values = line.partition(",")
        if not values or any(c in values for c in _NUMPY_ONLY_SPACES):
            raise ValueError(f"line {lineno}")
        labels.append(label)
        linenos.append(lineno)
        yield values


def load_features_text(path) -> LabeledFeatures:
    """Parse a comma-separated feature file; row order is preserved and
    labels stay opaque strings.

    All values are parsed by one np.loadtxt call. A file it rejects is
    parsed again line by line, which raises the typed error naming the
    line, or accepts the values only float() takes (`1_0`, non-ASCII
    digits)."""
    labels, linenos = [], array("q")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _data_lines(fh, labels, linenos)
            first = next(lines, None)
            if first is None:
                raise ParseError(0, "no data lines in file")
            features = np.loadtxt(
                chain((first,), lines), delimiter=",", dtype=np.float64, ndmin=2, comments=None
            )
    except ValueError:
        return _load_features_text_per_line(path)
    _check_finite(features, linenos)
    return LabeledFeatures(features=features, labels=np.asarray(labels))


def _load_features_text_per_line(path) -> LabeledFeatures:
    """The text grammar, one line and one float() call per value at a time."""
    labels, rows, linenos, dim = [], [], array("q"), None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError(lineno, f"line {lineno}: expected label,v1,...,vd")
            try:
                values = [float(p) for p in parts[1:]]
            except ValueError:
                raise ParseError(lineno, f"line {lineno}: non-numeric feature value")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise InconsistentDimension(
                    lineno, f"line {lineno}: {len(values)} values, expected {dim}"
                )
            labels.append(parts[0])
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise ParseError(0, "no data lines in file")
    features = np.asarray(rows)
    _check_finite(features, linenos)
    return LabeledFeatures(features=features, labels=np.asarray(labels))


def save_features_text(path, data: LabeledFeatures) -> None:
    """Write one line per row, the width and every label checked before the
    file is opened."""
    if data.d == 0:
        raise ValueError("text format needs at least one feature value per row, got d=0")
    labels = data.labels.tolist()
    for label in dict.fromkeys(labels):
        if (
            "," in label
            or label.startswith("#")
            or label[:1].isspace()
            or "\n" in label
            or "\r" in label
        ):
            raise ValueError(f"label {label!r} not representable in text format")
    # "%.17g" % v and f"{v:.17g}" format a float identically.
    row_format = "%s," + ",".join(["%.17g"] * data.d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, data.features):
            fh.write(row_format % (label, *row.tolist()))


def save_features_binary(path, data: LabeledFeatures) -> None:
    """Write the binary format. The labels are encoded into one array of
    zero-padded records (at least 1 byte wide), and each block is written
    from its array's own buffer; the features are copied only when they are
    not C-contiguous little-endian float64."""
    labels = np.char.encode(data.labels, "utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, data.n, data.d, labels.itemsize))
        fh.write(labels)
        fh.write(np.ascontiguousarray(data.features, dtype="<f8"))


def load_features_binary(path) -> LabeledFeatures:
    """Read the binary format; bit-exact inverse of save_features_binary.
    The features are read straight into the returned array."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedFile(f"header is {len(header)} bytes, need {_HEADER.size}")
        magic, n, d, width = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r}, expected {MAGIC!r}")
        label_block = fh.read(n * width)
        if len(label_block) < n * width:
            raise TruncatedFile("label block shorter than header implies")
        features = np.empty((n, d), dtype="<f8")
        if fh.readinto(features) < features.nbytes:
            raise TruncatedFile("feature payload shorter than header implies")
        if fh.read(1):
            raise TruncatedFile("trailing bytes after feature payload")
    labels = [
        label_block[i * width : (i + 1) * width].rstrip(b"\0").decode("utf-8")
        for i in range(n)
    ]
    _check_finite(features)
    return LabeledFeatures(features=features, labels=np.asarray(labels))


def load_features(path, fmt: str) -> LabeledFeatures:
    return load_features_binary(path) if fmt == "bin" else load_features_text(path)


def save_features(path, data: LabeledFeatures, fmt: str) -> None:
    if fmt == "bin":
        save_features_binary(path, data)
    else:
        save_features_text(path, data)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def emit_report(report: dict, path) -> None:
    """Write a report document as JSON (numpy scalars/arrays converted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_text(report) + "\n")


def report_text(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True)


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
