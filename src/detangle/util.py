"""Small shared helpers: atomic file writes, seed derivation and payload kinds."""

from __future__ import annotations

import json
import numbers
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import ValidationError


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Open a temp file next to path for UTF-8 text; on a clean exit rename it
    over path, so readers never see a torn file, and on an error delete it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # 0o666 leaves the mode to the umask, as open() does (mkstemp forces 0o600).
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path atomically (see atomic_open)."""
    with atomic_open(path) as fh:
        fh.write(text)


def atomic_write_json(path: str | Path, payload: object) -> None:
    """Serialize payload as JSON (full-precision floats via repr) atomically."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def require_distinct(names: Sequence[str], what: str) -> None:
    """Reject a list of names that holds one name more than once."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValidationError(f"repeated {what}: {repeated}")


def require_int(value: object, name: str) -> int:
    """An int or numpy integer (not a bool) as an int; anything else raises, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def spawn_seed(base_seed: int, *branch: int) -> int:
    """Derive a child seed deterministically from a base seed and branch indices.

    Independent computations (one probe per factor, per knockout variant, etc.)
    each get their own stream so execution order cannot change any result.
    The branch length is folded into the entropy because numpy treats
    entropy lists that differ only in trailing zeros as identical.
    """
    ss = np.random.SeedSequence(
        [int(base_seed) & 0xFFFFFFFF, len(branch), *[int(b) & 0xFFFFFFFF for b in branch]]
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Stored payloads carry no explicit type; each kind is told by a key it always
# has, tried in this order because a metrics payload also holds "importance".
_KIND_KEYS = (
    ("per_metric", "correlation"),
    ("runs", "cg_suite"),
    ("joint_both", "cg_run"),
    ("snc", "metrics"),
    ("importance", "align"),
)


def payload_kind(payload: dict) -> str:
    """The kind of a stored JSON payload: "metrics", "align", "cg_run",
    "cg_suite" or "correlation". Every reader of a payload decides its
    kind here."""
    for key, kind in _KIND_KEYS:
        if key in payload:
            return kind
    raise ValidationError(
        "unrecognized payload: expected a metrics, alignment, generalization, "
        "or correlation JSON"
    )
