"""Feature-file formats and report emission.

Text format: one `label,v1,...,vd` row per line. Each line is stripped
of surrounding whitespace; blank lines and lines starting with `#` are
skipped. The label is everything before the first comma, and each value
follows Python float() syntax, surrounding whitespace included. Values are
written as `%.17g`, so float64 round-trips exactly. A label that holds a
comma or a line break, or starts with `#` or whitespace, would not read
back as itself, so the text writer rejects it before the file is opened,
as it does a matrix of zero columns, whose `label,` lines would not load.
Text is UTF-8: a line holding a byte that is not raises ParseError naming
the line, as the line is read.

The text reader has one parser: it reads each line once and parses it as
it is read, one float() call per value, so a file's faults are reported
in line order, the first bad line named, and a pipe loads exactly as a
regular file with the same bytes does.
Text costs far more than binary: at 50,000 x 128 (2-core machine), text
took about 5.6 s to save and 3.6-4.2 s to load, binary 0.1-0.2 s each.

Binary format (all integers little-endian):

    offset  size      content
    0       8         magic "GFDENSE1"
    8       8         n, row count (u64)
    16      8         d, feature dimension (u64)
    24      4         label_width, bytes per label record (u32)
    28      n*width   labels, UTF-8 zero-padded to label_width
    ...     n*d*8     features, IEEE-754 float64, row-major

The size the header implies is checked against a regular file's size
before anything is allocated, so a corrupt header raises TruncatedFile.
No size bounds a pipe, so its label block is read 1 MiB at a time, as is
the feature payload before the labels when labels have 0 bytes.
A label that is not UTF-8 raises BadLabel naming its row.

Each format has one batch reader, which parses and checks a run of rows,
and one writer, which writes a file's header and then its rows a batch at
a time (feature_writer); load_features_text and save_features use them on
the whole file. FeatureReader reads a file's labels, then its rows a batch
at a time, so that a caller holds one batch at once; load_features_binary
is its one batch. Binary I/O holds no copy of the feature payload: rows
are read straight into the array returned and written from its own buffer.

Both readers reject NaN and infinite feature values.

Reports are JSON documents, numpy arrays and scalars written as lists and
numbers; emit_report/load_report round-trip floats exactly.
"""

import json
import os
import re
import stat
import struct
from array import array
from itertools import chain, islice

import numpy as np

from .data import LabeledFeatures, check_finite
from .errors import (
    BadLabel,
    BadMagic,
    InconsistentDimension,
    NotRegularFile,
    ParseError,
    TruncatedFile,
)

FORMATS = ("text", "bin")
MAGIC = b"GFDENSE1"
_HEADER = struct.Struct("<8sQQI")
# The text writer formats the rows of about this many bytes of features into
# one string per write call (the reader parses a line at a time).
# Formatting builds about 10 times their size in Python floats and strings,
# so a chunk is kept well below a denoise batch (DENOISE_BATCH_BYTES): on 200
# classes of 50 x 128 rows, 1 MiB chunks raised the traced peak of `denoise`
# from 2.8 to 10.6 MB.
TEXT_CHUNK_BYTES = 1 << 16
# Text is decoded with errors="surrogateescape", which maps each byte that is
# not UTF-8 to one of these code points; strict UTF-8 decodes to none of them.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def open_text(path):
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def escaped_byte(line: str) -> int | None:
    """The first byte of a line read through open_text that is not valid
    UTF-8, or None."""
    escaped = None if line.isascii() else _ESCAPED_BYTE.search(line)
    return None if escaped is None else ord(escaped.group()) - 0xDC00


def _records(lines):
    """(line number, label, values) for each data line of a text file's
    lines (read by open_text): values is the text after the label's comma,
    or None on a line without one. A line holding a byte that is not UTF-8
    raises ParseError when it is reached."""
    for lineno, raw in enumerate(lines, start=1):
        if (byte := escaped_byte(raw)) is not None:
            raise ParseError(lineno, f"line {lineno}: byte 0x{byte:02x} is not valid UTF-8")
        line = raw.strip()
        if line and not line.startswith("#"):
            label, comma, values = line.partition(",")
            yield lineno, label, values if comma else None


def _first_record(records):
    """The first record and the number of values on its line."""
    first = next(records, None)
    if first is None:
        raise ParseError(0, "no data lines in file")
    return first, (first[2] or "").count(",") + 1


def _read_text(records, d: int | None = None, first_row: int = 0, n_hint: int = 0):
    """The text batch reader: the rows of an iterator of records, and each
    row's line number. Rows are numbered from first_row, and every row must
    hold d values when d is given, else as many as the first.

    Each record is parsed as it is read, one float() call per value, into
    one array of n_hint rows, the number of records when known, which grows
    in place by a quarter when they outnumber it. A line's faults are
    checked in the reference's order: no comma, a value float() rejects,
    then the count of values; finiteness once every row is read."""
    first, width = _first_record(records)
    d = width if d is None else d
    features, labels, linenos = np.empty((n_hint, d)), [], array("q")
    for n, (lineno, label, values) in enumerate(chain((first,), records)):
        if values is None:
            raise ParseError(lineno, f"line {lineno}: expected label,v1,...,vd")
        parts = values.split(",")
        try:
            row = np.fromiter(map(float, parts), np.float64, len(parts))
        except ValueError:
            raise ParseError(lineno, f"line {lineno}: non-numeric feature value") from None
        if len(parts) != d:
            raise InconsistentDimension(lineno, f"line {lineno}: {len(parts)} values, expected {d}")
        if n == len(features):
            # No view exists; refcheck would count a tracer's frame locals.
            features.resize((max(n + 1, n * 5 // 4), d), refcheck=False)
        features[n] = row
        labels.append(label)
        linenos.append(lineno)
    features.resize((len(labels), d), refcheck=False)
    check_finite(features, first_row, linenos)
    return LabeledFeatures(features=features, labels=np.asarray(labels)), linenos


def load_features_text(path) -> LabeledFeatures:
    """Parse a comma-separated feature file as one batch; row order is
    preserved and labels stay opaque strings."""
    with open_text(path) as fh:
        return _read_text(_records(fh))[0]


def _binary_header(fh) -> tuple[int, int, int]:
    """Read and check the header; return n, d and the label width. For a
    regular file, the size the header implies must be the file's size."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TruncatedFile(f"header is {len(header)} bytes, need {_HEADER.size}")
    magic, n, d, width = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}, expected {MAGIC!r}")
    if n and not width and not d:
        # Rows of 0 bytes: no file size bounds n.
        raise TruncatedFile(f"header claims {n} rows of 0 bytes")
    if 8 * d > np.iinfo(np.intp).max:
        # With n = 0 no file size bounds d either.
        raise TruncatedFile(f"header claims rows of {d} features, more than an array can hold")
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        labels_end = _HEADER.size + n * width
        if st.st_size < labels_end:
            raise TruncatedFile("label block shorter than header implies")
        if st.st_size < labels_end + 8 * n * d:
            raise TruncatedFile("feature payload shorter than header implies")
        if st.st_size > labels_end + 8 * n * d:
            raise TruncatedFile("trailing bytes after feature payload")
    return n, d, width


def _binary_block(fh, size: int, what: str) -> bytearray:
    """The next size bytes of fh, read 1 MiB at a time, so that a pipe
    holding less than its header claims raises TruncatedFile without first
    asking for the memory claimed."""
    block = bytearray()
    while len(block) < size:
        if not (piece := fh.read(min(1 << 20, size - len(block)))):
            raise TruncatedFile(f"{what} shorter than header implies")
        block += piece
    return block


def _binary_labels(fh, n: int, width: int) -> np.ndarray:
    """The n labels of width bytes each."""
    if not width:
        return np.full(n, "")
    block = _binary_block(fh, n * width, "label block")
    return np.asarray([_binary_label(block[i * width : (i + 1) * width], i) for i in range(n)])


def _binary_label(record: bytes, row: int) -> str:
    try:
        return record.rstrip(b"\0").decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise BadLabel(row, f"row {row}: label byte 0x{byte:02x} is not valid UTF-8") from None


def load_features_binary(path) -> LabeledFeatures:
    """Read the binary format as FeatureReader's one batch; bit-exact
    inverse of save_features_binary."""
    with FeatureReader(path, "bin") as reader:
        [(batch, _)] = reader.batches([len(reader.labels)])
    return batch


class FeatureReader:
    """A feature file read over one open file: its labels on opening, then
    its rows a batch at a time by batches(). Text is read twice, so it must
    be a regular file (NotRegularFile); binary is read once, so a pipe will do.

    labels: every row's label; d: the row width (for text, the number of
    values on the first data line, which every row must match)."""

    def __init__(self, path, fmt: str):
        self._fmt = fmt
        self._fh = open(path, "rb") if fmt == "bin" else open_text(path)
        try:
            if fmt == "bin":
                n, self.d, width = _binary_header(self._fh)
                self._payload = None
                if not width:
                    # Labels of 0 bytes are all "", so the rows are one batch,
                    # read first: a pipe's bytes, not its header, bound n.
                    block = _binary_block(self._fh, 8 * n * self.d, "feature payload")
                    self._payload = np.frombuffer(block, "<f8").reshape(n, self.d)
                self.labels = _binary_labels(self._fh, n, width)
            else:
                if not stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode):
                    raise NotRegularFile(f"{path} is read twice, so it must be a regular file")
                records = _records(self._fh)
                first, self.d = _first_record(records)
                self.labels = np.asarray([first[1], *(label for _, label, _ in records)])
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "FeatureReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def batches(self, ends):
        """Yield, for each batch of rows ending before the next of the
        increasing row indices `ends` (the last being the row count), the
        batch parsed and checked, and a function naming a batch row: by
        its line (text) or its file row (binary). A batch is not held once
        the next one is asked for, and binary bytes after the last raise
        TruncatedFile."""
        start = 0
        if self._fmt == "bin":
            for end in ends:
                if self._payload is None:
                    features = np.empty((end - start, self.d), dtype="<f8")
                    if self._fh.readinto(features) < features.nbytes:
                        raise TruncatedFile("feature payload shorter than header implies")
                else:
                    features = self._payload[start:end]
                check_finite(features, start)
                batch = LabeledFeatures(features=features, labels=self.labels[start:end])
                yield batch, (lambda i, start=start: f"row {start + i}")
                del batch
                start = end
            if self._fh.read(1):
                raise TruncatedFile("trailing bytes after feature payload")
            return
        self._fh.seek(0)
        records = _records(self._fh)
        for end in ends:
            batch, linenos = _read_text(islice(records, end - start), self.d, start, end - start)
            yield batch, (lambda i, linenos=linenos: f"line {linenos[i]}")
            del batch
            start = end


def _text_writer(labels: np.ndarray, d: int):
    if d == 0:
        raise ValueError("text format needs at least one feature value per row, got d=0")
    for label in dict.fromkeys(labels.tolist()):
        if (
            "," in label
            or label.startswith("#")
            or label[:1].isspace()
            or "\n" in label
            or "\r" in label
        ):
            raise ValueError(f"label {label!r} not representable in text format")
    # "%.17g" % v and f"{v:.17g}" format a float identically.
    row_format = "%s," + ",".join(["%.17g"] * d) + "\n"
    step = max(1, TEXT_CHUNK_BYTES // (8 * d))

    def write_rows(fh, batch: LabeledFeatures) -> None:
        labels = batch.labels.tolist()
        for i in range(0, batch.n, step):
            rows = zip(labels[i : i + step], batch.features[i : i + step].tolist())
            fh.write("".join([row_format % (label, *row) for label, row in rows]).encode())

    return b"", write_rows


def _binary_writer(labels: np.ndarray, d: int):
    encoded = np.char.encode(labels, "utf-8")
    header = _HEADER.pack(MAGIC, encoded.size, d, encoded.itemsize) + encoded.tobytes()

    def write_rows(fh, batch: LabeledFeatures) -> None:
        fh.write(np.ascontiguousarray(batch.features, dtype="<f8"))

    return header, write_rows


def feature_writer(fmt: str, labels: np.ndarray, d: int):
    """Check that a file of these labels and row width can be written in
    fmt, and return its header bytes (the labels, for binary) and the
    function that writes a batch of its rows, which follow the labels in
    order, to a file opened "wb". A text batch is formatted a few rows
    per string (see TEXT_CHUNK_BYTES); binary features are written from
    their own buffer, copied only when they are not C-contiguous
    little-endian float64."""
    return (_binary_writer if fmt == "bin" else _text_writer)(np.asarray(labels, dtype=np.str_), d)


def save_features_text(path, data: LabeledFeatures) -> None:
    save_features(path, data, "text")


def save_features_binary(path, data: LabeledFeatures) -> None:
    save_features(path, data, "bin")


def load_features(path, fmt: str) -> LabeledFeatures:
    return load_features_binary(path) if fmt == "bin" else load_features_text(path)


def save_features(path, data: LabeledFeatures, fmt: str) -> None:
    """Write data as one batch, the labels and width checked before the
    file is opened."""
    header, write_rows = feature_writer(fmt, data.labels, data.d)
    with open(path, "wb") as fh:
        fh.write(header)
        write_rows(fh, data)


def emit_report(report: dict, path, append: bool = False) -> None:
    """Write, or append, a report document as JSON (numpy scalars/arrays converted)."""
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        fh.write(report_text(report) + "\n")


def _to_json(obj):
    """json.dumps' hook: numpy arrays and scalars as lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_to_json)


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
