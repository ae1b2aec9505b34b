"""The package's exceptions survive pickling, as a process pool needs."""

import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import muskat
from muskat.core import NanEncountered, make_curve, make_grid
from muskat.lemma import (
    PreconditionError,
    QuadratureError,
    _quad_sum,
    splice,
    turnover_predictor,
)
from muskat.velocity import ArcChordError, periodic_rhs


def _collide():
    # p1 = -alpha collapses every node onto z = (0, 0)
    grid = make_grid(64)
    periodic_rhs(make_curve(grid, -grid.nodes, np.zeros(grid.n)))


def _nan():
    grid = make_grid(8)
    make_curve(grid, np.full(grid.n, np.nan), np.zeros(grid.n))


def _outside():
    turnover_predictor(splice(18.0), -25.0)


def _nonfinite():
    _quad_sum([(lambda x: np.full_like(x, np.nan), 0.0, 1.0)], 1e-10, "NaN")


_RAISERS = {ArcChordError: _collide, NanEncountered: _nan,
            PreconditionError: _outside, QuadratureError: _nonfinite}


def test_every_package_exception_is_covered():
    defined = set()
    for info in pkgutil.iter_modules(muskat.__path__, "muskat."):
        module = importlib.import_module(info.name)
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type)
                    and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == set(_RAISERS)


@pytest.mark.parametrize("kind", list(_RAISERS), ids=lambda k: k.__name__)
def test_exception_survives_pickling(kind):
    with pytest.raises(kind) as info:
        _RAISERS[kind]()
    err = info.value
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is kind
    assert str(back) == str(err)
    assert back.args == err.args
    # the fields too: min_denominator and pair for an ArcChordError
    assert vars(back) == vars(err)
