"""Exception hierarchy shared across the package.

Validation failures raise subclasses of :class:`ValidationError`; anything
that went wrong while reading or writing files raises :class:`DataIOError`.
The CLI exits 1 on the former, 2 on the latter, 3 on :class:`TrainingDivergedError`.
"""

from __future__ import annotations

from os import PathLike


class DetangleError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DetangleError):
    """Invalid arguments, schemas, or data contents."""


class DataIOError(DetangleError):
    """Filesystem or serialization failure."""


def _located(
    message: str, path: str | PathLike[str] | None, line: int | None, column: str | None
) -> str:
    """Prefix message with whichever of file path, line and column are known."""
    where = []
    if path is not None:
        where.append(str(path))
    if line is not None:
        where.append(f"line {line}")
    if column is not None:
        where.append(f"column {column!r}")
    return f"{', '.join(where)}: {message}" if where else message


class MalformedCsvError(ValidationError):
    """CSV structure is broken (bad header, ragged row, unparseable field)."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: str | None = None,
        path: str | PathLike[str] | None = None,
    ):
        self.line = line
        self.column = column
        self.path = path
        super().__init__(_located(message, path, line, column))


class HeaderMismatchError(MalformedCsvError):
    """CSV header does not match the expected z/g column layout."""


class LabelOutOfRangeError(ValidationError):
    """A factor label falls outside [0, cardinality)."""

    def __init__(
        self,
        line: int,
        column: str,
        value: object,
        factor: str,
        cardinality: int,
        path: str | PathLike[str] | None = None,
    ):
        self.line = line
        self.column = column
        self.path = path
        super().__init__(
            _located(
                f"label {value!r} out of range for factor {factor!r} (cardinality {cardinality})",
                path,
                line,
                column,
            )
        )


class NonFiniteLatentError(ValidationError):
    """A latent value is NaN or infinite."""

    def __init__(
        self, line: int, column: str, value: object, path: str | PathLike[str] | None = None
    ):
        self.line = line
        self.column = column
        self.path = path
        super().__init__(_located(f"non-finite latent value {value!r}", path, line, column))


class SchemaError(ValidationError):
    """Factor schema is malformed."""


class SplitError(ValidationError):
    """A requested split cannot be built (empty side, bad fraction, bad pair)."""


class AlphabetOverflowError(ValidationError):
    """Joint alphabet exceeds the configured cell cap."""


class DegenerateInputError(ValidationError):
    """Input is degenerate for the requested computation (e.g. zero entropy)."""


class TrainingDivergedError(DetangleError):
    """Probe training produced a non-finite loss."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch}: loss={loss!r}")
