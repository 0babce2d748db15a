import errno

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import twcalc as tw
from twcalc import formats


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def wong_cache():
    """Memoized Hermite-Wong grid functions; large grids are expensive."""
    cache = {}

    def get(pair, L=8.0, n=256):
        key = (pair, L, n)
        if key not in cache:
            cache[key] = tw.hermite_wong_eval(pair, L, n)
        return cache[key]

    return get


def l2_gap(f, g) -> float:
    """Grid L2 distance between two GridFunctions on the same grid."""
    return float(np.sqrt(np.sum(np.abs(f.values - g.values) ** 2) * f.cell))


# coefficient parts: finite floats, with both signed zeros drawn often
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


def sparse_coeffs(shape):
    """Complex arrays of the given shape, mostly zero, some parts -0.0."""
    return hnp.arrays(complex, shape, elements=st.builds(complex, _PART, _PART),
                      fill=st.sampled_from([0j, complex(-0.0, -0.0)]))


class _FullDisk:
    """A file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, pieces):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def full_disk(monkeypatch):
    """Call it, and every file twcalc.formats opens from then on fails its writes as on a full disk."""
    return lambda: monkeypatch.setattr(formats, "open", lambda *a: _FullDisk(open(*a)), raising=False)
