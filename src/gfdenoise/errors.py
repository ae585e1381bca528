"""Exception types shared across the package."""

import copyreg


class GfdError(Exception):
    """Base class for all errors raised by gfdenoise."""

    def __reduce__(self):
        # Rebuild from the stored message and fields without calling
        # __init__, whose arguments (an index or line, say) are not args,
        # so that pickling and copying keep the type, message and fields.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DimensionMismatch(GfdError):
    """Operands have incompatible shapes."""


class InvalidRange(GfdError):
    """An index range or gain is outside its allowed bounds."""


class InvalidK(GfdError):
    """Neighbor count k is outside [1, n-1]."""


class InvalidSize(GfdError):
    """A size parameter is too small for the requested construction."""


class IsolatedVertex(GfdError):
    """A vertex has zero degree, so the normalized Laplacian is undefined."""

    # The fault, for a message that names the vertex's row by other means.
    reason = "vertex has zero degree"

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"vertex {index} has zero degree")


class ZeroVector(GfdError):
    """A feature row has zero norm, so cosine similarity is undefined."""

    reason = "feature row has zero norm"

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"feature row {index} has zero norm")


class ConvergenceFailure(GfdError):
    """The eigensolver failed to converge."""


class ClassTooSmall(GfdError):
    """A class has too few samples to build a graph."""


class EmptyClass(GfdError):
    """A classifier was fit on an empty training set."""


class InsufficientPool(GfdError):
    """The feature pool cannot supply the requested episode."""


class TooFewSamples(GfdError):
    """A confidence interval needs at least two values."""


class ParseError(GfdError):
    """A text feature file could not be parsed."""

    def __init__(self, line: int, message: str | None = None):
        self.line = line
        super().__init__(message or f"parse error at line {line}")


class InconsistentDimension(ParseError):
    """A text feature file mixes rows of different dimensions."""

    def __init__(self, line: int, message: str | None = None):
        super().__init__(line, message or f"inconsistent dimension at line {line}")


class NonFiniteValue(GfdError):
    """A feature file or class holds a NaN or infinite value."""

    reason = "non-finite feature value"

    def __init__(self, row: int, line: int | None = None):
        self.row = row
        self.line = line
        where = f"line {line}" if line is not None else f"feature row {row}"
        super().__init__(f"{where}: {self.reason}")


class BadLabel(GfdError):
    """A binary feature file holds a label that is not valid UTF-8."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row}: label is not valid UTF-8")


class BadMagic(GfdError):
    """A binary feature file does not start with the expected magic."""


class TruncatedFile(GfdError):
    """A binary feature file's payload does not match its header, or its
    header claims sizes that no payload can have."""


class NotRegularFile(GfdError):
    """An input that must be read twice is not a regular file."""


class ConfigError(GfdError):
    """A configuration file or CLI setting is invalid."""
