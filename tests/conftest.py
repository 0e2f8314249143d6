"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from resonances1d.potential import Potential


def make_zero_potential(a=-1.0, b=1.0):
    """An identically-zero potential on [a, b].

    The public constructors reject all-zero data (the trimmed support would
    be empty), so the free case is assembled directly; every solver must
    treat it as V = 0.
    """
    return Potential._unchecked((a, 0.0, b), (0.0, 0.0), "free")


def yhat_type(V):
    """Exponential type of yhat, 2 max(|a|, |b|): the spacing scale of a
    half-plane search for its zeros."""
    a, b = V.hull
    return 2 * max(abs(a), abs(b))


@pytest.fixture
def zero_potential():
    return make_zero_potential()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
