"""Typed errors survive pickling and copying."""

import copy
import inspect
import pickle

import pytest

import gfdenoise.errors as errors
from gfdenoise.errors import GfdError

ERROR_TYPES = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, GfdError)
]


def instances(cls):
    """Each way of building cls: a message for the plain errors; for those
    that take a row, index or line, the number alone, with a message, and
    with every optional field."""
    if cls.__init__ is Exception.__init__:
        return [cls("something went wrong"), cls()]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    required = [7 + i for i, p in enumerate(params) if p.default is p.empty]
    built = [cls(*required)]
    for p in params[len(required):]:
        built.append(cls(*required, **{p.name: "custom message" if p.name == "message" else 11}))
    return built


def test_every_error_type_is_covered():
    defined = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert defined == ERROR_TYPES
    assert {"ZeroVector", "IsolatedVertex", "NonFiniteValue", "ParseError",
            "InconsistentDimension"} <= {cls.__name__ for cls in ERROR_TYPES}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_pickle_keeps_type_message_and_fields(cls):
    for exc in instances(cls):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(exc, protocol=protocol))
            assert type(back) is cls
            assert str(back) == str(exc)
            assert back.args == exc.args
            assert vars(back) == vars(exc)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_copy_keeps_type_message_and_fields(cls):
    for exc in instances(cls):
        for back in (copy.copy(exc), copy.deepcopy(exc)):
            assert type(back) is cls and str(back) == str(exc) and vars(back) == vars(exc)


def test_fields_and_messages_read_as_built():
    back = pickle.loads(pickle.dumps(errors.ZeroVector(3)))
    assert str(back) == "feature row 3 has zero norm" and back.index == 3
    back = pickle.loads(pickle.dumps(errors.NonFiniteValue(2, 9)))
    assert str(back) == "line 9: non-finite feature value"
    assert (back.row, back.line) == (2, 9)
    back = pickle.loads(pickle.dumps(errors.InconsistentDimension(5)))
    assert str(back) == "inconsistent dimension at line 5" and back.line == 5
