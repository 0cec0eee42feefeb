"""Exception hierarchy shared across the package.

Validation failures raise subclasses of :class:`ValidationError`; anything
that went wrong while reading or writing files raises :class:`DataIOError`.
The CLI exits 1 on the former, 2 on the latter, 3 on :class:`TrainingDivergedError`.

Errors about a position in the data carry it in attributes with one meaning
each: ``line`` is a 1-based line of the data file (the header is line 1),
``row`` is a 0-based row of an in-memory array, ``column`` names the column
(``"z3"``, ``"g0"``) and ``path`` the data file. An error from the CSV loader
has a ``line`` and no ``row``; one from :class:`RepresentationSet` or
``discretize_neuron`` has a ``row`` and no ``line``.
"""

from __future__ import annotations

from os import PathLike


class DetangleError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DetangleError):
    """Invalid arguments, schemas, or data contents."""


class DataIOError(DetangleError):
    """Filesystem or serialization failure."""


class _LocatedError(ValidationError):
    """A validation error whose message is prefixed by whatever position is known."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: str | None = None,
        path: str | PathLike[str] | None = None,
        *,
        row: int | None = None,
    ):
        super().__init__(message)
        self.line = line
        self.column = column
        self.path = path
        self.row = row

    def __str__(self) -> str:
        where = [] if self.path is None else [str(self.path)]
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.row is not None:
            where.append(f"row {self.row}")
        if self.column is not None:
            where.append(f"column {self.column!r}")
        return f"{', '.join(where)}: {self.args[0]}" if where else self.args[0]


class MalformedCsvError(_LocatedError):
    """CSV structure is broken (bad header, ragged row, unparseable field)."""


class HeaderMismatchError(MalformedCsvError):
    """CSV header does not match the expected z/g column layout."""


class LabelOutOfRangeError(_LocatedError):
    """A factor label falls outside [0, cardinality)."""


class NonFiniteLatentError(_LocatedError):
    """A latent value is NaN or infinite."""


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
