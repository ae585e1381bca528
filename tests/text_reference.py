"""References the bulk text I/O is compared against: the per-line parser,
one float() call per value, and the per-value f"{v:.17g}" writer that
define the text format."""

from array import array

import numpy as np

from gfdenoise.data import LabeledFeatures
from gfdenoise.errors import InconsistentDimension, NonFiniteValue, ParseError


def load_text_per_line(path) -> LabeledFeatures:
    labels, rows, linenos, dim = [], [], array("q"), None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            escaped = [ord(c) - 0xDC00 for c in raw if 0xDC80 <= ord(c) <= 0xDCFF]
            if escaped:
                raise ParseError(
                    lineno, f"line {lineno}: byte 0x{escaped[0]:02x} is not valid UTF-8"
                )
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
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteValue(row, linenos[row])
    return LabeledFeatures(features=features, labels=np.asarray(labels))


def save_text_per_value(path, data: LabeledFeatures) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(data.labels, data.features):
            fh.write(str(label) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
