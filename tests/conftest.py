import math

import numpy as np
import pytest


def laplace_pdf(z, params):
    """Laplace density (eps/2) * exp(-eps*|z|) for `LaplaceParams` params."""
    eps = params.epsilon
    return eps / 2.0 * math.exp(-eps * abs(z))


class ScriptedRng:
    """Replays a fixed sequence of draws; used to enumerate randomness exactly.

    Each scheduled draw is either a bare value (accepted for any range) or a
    (bound, value) pair asserting the range the code under test requested.
    """

    def __init__(self, draws):
        self.draws = list(draws)
        self.pos = 0

    def randrange(self, n):
        assert self.pos < len(self.draws), "script exhausted"
        item = self.draws[self.pos]
        self.pos += 1
        if isinstance(item, tuple):
            bound, value = item
            assert bound == n, f"draw {self.pos}: expected bound {bound}, got {n}"
        else:
            value = item
        assert 0 <= value < n
        return value

    @property
    def exhausted(self):
        return self.pos == len(self.draws)


@pytest.fixture
def scripted():
    return ScriptedRng


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)
