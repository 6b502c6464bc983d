"""Every package error survives pickling, as a pool worker returns it."""

import inspect
import pickle

import pytest

from powerdep import errors

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PowerdepError)
]

EXTRAS = {
    errors.MissingDatesError: {"dates": ["2019-03-31", "2019-04-01"]},
    errors.OptimizationError: {"last_params": [0.1, 0.2]},
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    extras = EXTRAS.get(cls, {})
    exc = cls("it broke", location="row 7", **extras)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (back.code, back.message, back.location) == (cls.code, "it broke", "row 7")
    assert str(back) == "it broke"
    for name, value in extras.items():
        assert getattr(back, name) == value
