"""The exception hierarchy: every error survives pickling, as it must to
cross from a probe worker process back to its parent."""

import inspect
import math
import pickle

import pytest

from detangle import errors

LOCATED = {"line": 3, "column": "z1", "path": "data.csv", "row": 2}
ARGUMENTS = {
    errors.TrainingDivergedError: ((4, math.nan), {}),
    errors.MalformedCsvError: (("bad field",), LOCATED),
    errors.HeaderMismatchError: (("bad header",), {"line": 1, "path": "data.csv"}),
    errors.LabelOutOfRangeError: (("label 5 out of range",), {"column": "g0", "row": 7}),
    errors.NonFiniteLatentError: (("not finite",), LOCATED),
}
CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.DetangleError)]
assert set(ARGUMENTS) < set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    args, kwargs = ARGUMENTS.get(cls, (("something failed",), {}))
    error = cls(*args, **kwargs)
    error.note = "set after construction"
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    # repr, so that a NaN loss compares equal to itself
    assert {k: repr(v) for k, v in vars(copy).items()} == {
        k: repr(v) for k, v in vars(error).items()}
