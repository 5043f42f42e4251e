"""Shared fixtures: canonical data sets and comparison helpers."""
import pytest

from schroflat.cli import pulse_datum, reference_datum, sine_profile


@pytest.fixture
def ref_datum():
    """Piecewise-constant complex profile with jumps at 0.2, 0.5, 0.7."""
    return reference_datum()


@pytest.fixture
def pulse():
    """Smooth complex polynomial pulse, zero to second order at both ends."""
    return pulse_datum()


@pytest.fixture
def sine():
    return sine_profile()


def assert_close(actual, expected, rel=1e-12, abs_tol=0.0):
    actual = complex(actual)
    expected = complex(expected)
    err = abs(actual - expected)
    bound = max(rel * abs(expected), abs_tol)
    assert err <= bound, (
        f"got {actual!r}, want {expected!r} (err {err:.3e} > bound {bound:.3e})")
