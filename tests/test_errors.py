from __future__ import annotations

import inspect
import pickle

import pytest

from lscd import errors

# One instance of every error class the package defines.
INSTANCES = {
    errors.LscdError: errors.LscdError("base"),
    errors.EmptyCorpusError: errors.EmptyCorpusError("no sentences"),
    errors.VocabularyError: errors.VocabularyError("word 'x' missing"),
    errors.FormatError: errors.FormatError("bad row", line=12),
    errors.ZeroNormError: errors.ZeroNormError("zero vector"),
    errors.UnderdeterminedError: errors.UnderdeterminedError("too few words"),
    errors.TrainingDivergedError: errors.TrainingDivergedError("nan loss", step=7),
    errors.DatasetError: errors.DatasetError("empty split"),
    errors.TargetMismatchError: errors.TargetMismatchError({"a", "b"}, {"c"}),
    errors.UndefinedCorrelationError: errors.UndefinedCorrelationError("constant"),
    errors.StageError: errors.StageError(
        "static", errors.TrainingDivergedError("inf values", step=3)
    ),
}


def test_every_error_class_listed():
    defined = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    assert defined == set(INSTANCES)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error = INSTANCES[cls]
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls
    assert str(again) == str(error)
    assert again.args == error.args
    assert set(vars(again)) == set(vars(error))
    for name, value in vars(error).items():
        if isinstance(value, BaseException):
            assert type(vars(again)[name]) is type(value)
            assert str(vars(again)[name]) == str(value)
            assert vars(vars(again)[name]) == vars(value)
        else:
            assert vars(again)[name] == value

