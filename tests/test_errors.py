import pickle

import pytest

from ratespde import ComponentSolveError, ConfigError, GridTooLargeError


@pytest.mark.parametrize(
    "error,attrs",
    [
        (GridTooLargeError(300, 200), {"points": 300, "cap": 200}),
        (ComponentSolveError((1, 2)), {"levels": (1, 2)}),
        (ConfigError("unknown key 'x'", 7), {"line": 7}),
        (ConfigError("missing required key 'levels'"), {"line": None}),
    ],
)
def test_pickle_round_trip_keeps_message_and_attributes(error, attrs):
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error)
    assert str(again) == str(error)
    for name, value in attrs.items():
        assert getattr(again, name) == value


def test_messages():
    assert str(GridTooLargeError(300, 200)) == "grid with 300 nodes exceeds the cap of 200"
    assert str(ComponentSolveError((1, 2))) == "component grid (1, 2) failed"
    assert str(ConfigError("bad", 3)) == "line 3: bad"
    assert str(ConfigError("bad")) == "bad"
