"""Step profile, Taylor-coefficient algebra, and derivative-growth certification."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schroflat import step_jet
from schroflat.gevrey import MAX_JET_ORDER, _div, _exp, _pow

from conftest import assert_close
from oracles import GevreyBound, _mul, step_function, verify_gevrey_bound


# ------------------------------------------------------------ step values

def test_step_frozen_values():
    assert_close(step_function(0.25, 1.9), 0.96406596355059631405, rel=1e-14)
    assert step_function(0.5, 1.9) == 0.5


def test_step_endpoints_and_monotonicity():
    t = np.linspace(0.0, 1.0, 201)
    v = step_function(t, 1.9)
    assert v[0] == 1.0 and v[-1] == 0.0
    assert np.all(np.diff(v) <= 0.0)
    assert step_function(-0.3, 1.9) == 1.0
    assert step_function(1.7, 1.9) == 0.0


@pytest.mark.parametrize("s", [1.1, 1.5, 1.9])
def test_step_complement_symmetry(s):
    t = np.linspace(0.02, 0.98, 49)
    np.testing.assert_allclose(step_function(t, s) + step_function(1.0 - t, s),
                               1.0, rtol=0, atol=1e-15)


def test_step_rejects_order_outside_range():
    with pytest.raises(ValueError):
        step_function(0.5, 1.0)
    with pytest.raises(ValueError):
        step_function(0.5, 2.0)
    with pytest.raises(ValueError):
        step_jet(0.5, 2.5, 4)


# -------------------------------------------------------------- step jets

def test_step_jet_frozen_coefficients():
    jet = step_jet(0.3, 1.9, 12)
    assert_close(jet[1], -1.3374891951557531831, rel=1e-12)
    assert_close(jet[5], -122.08915180790946489, rel=1e-12)
    assert_close(jet[10], 16561.588438973080419, rel=1e-12)
    jet2 = step_jet(0.5, 1.6, 10)
    assert_close(jet2[7], 157437.46544729052878, rel=1e-12)


def test_step_jet_value_matches_pointwise():
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        jet = step_jet(t, 1.7, 6)
        assert abs(jet[0] - step_function(t, 1.7)) < 1e-13
        assert jet.imag.max() == 0.0


def test_step_jet_first_coefficient_matches_difference_quotient():
    t, h = 0.4, 1e-6
    fd = (step_function(t + h, 1.8) - step_function(t - h, 1.8)) / (2 * h)
    jet = step_jet(t, 1.8, 3)
    assert abs(jet[1].real - fd) < 1e-7 * abs(fd)


def test_step_jet_snaps_in_flat_tails():
    # deep inside a boundary layer one exponential underflows and the
    # profile is constant in double precision; the jet must be exactly so
    left = step_jet(0.01, 1.2, 8)
    right = step_jet(0.99, 1.2, 8)
    assert left[0] == 1.0 and np.all(left[1:] == 0.0)
    assert np.all(right == 0.0)
    assert step_jet(-1.0, 1.5, 4)[0] == 1.0
    assert step_jet(2.0, 1.5, 4)[0] == 0.0


def test_step_jet_double_underflow_is_an_error():
    # s -> 1 makes both exponentials underflow mid-interval; silently
    # returning a constant would corrupt downstream series
    with pytest.raises(ValueError, match="underflow"):
        step_jet(0.5, 1.001, 4)


def test_step_jet_order_cap():
    with pytest.raises(ValueError):
        step_jet(0.5, 1.9, MAX_JET_ORDER + 1)
    assert step_jet(0.5, 1.9, MAX_JET_ORDER).shape == (MAX_JET_ORDER + 1,)


def test_step_jet_batch_columns_match_single_samples():
    # s=1.2 has flat tails of both kinds inside (0,1): one exponential
    # underflows below t ~ 0.27 and the other above t ~ 0.73
    t = np.array([-0.5, 0.0, 0.01, 0.1, 0.3, 0.45, 0.5, 0.62, 0.9, 0.99, 1.0, 1.5])
    batch = step_jet(t, 1.2, 10)
    assert batch.shape == (11, t.size)
    for i, ti in enumerate(t):
        assert batch[:, i].tobytes() == step_jet(float(ti), 1.2, 10).tobytes(), ti
    grid = step_jet(t.reshape(3, 4), 1.2, 10)
    assert grid.shape == (11, 3, 4)
    assert grid.reshape(11, -1).tobytes() == batch.tobytes()


@pytest.mark.parametrize("s", [1.2, 1.6, 1.9])
def test_step_jet_truncation_is_exact(s):
    # coefficient j comes from the orders up to j alone, so a jet built to a
    # higher order starts with the lower order's jet byte for byte
    t = np.array([-0.5, 0.0, 0.01, 0.1, 0.3, 0.45, 0.5, 0.62, 0.9, 0.99, 1.0, 1.5])
    full = step_jet(t, s, MAX_JET_ORDER)
    for m in (0, 1, 2, 7, 16, 21):
        assert full[: m + 1].tobytes() == step_jet(t, s, m).tobytes(), m


# ---------------------------------------------------- coefficient algebra

finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                              allow_nan=False, allow_infinity=False)
jet_coeffs = hnp.arrays(np.complex128, 7, elements=finite_c)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(a=jet_coeffs, b=jet_coeffs)
def test_product_is_cauchy_convolution(a, b):
    prod = _mul(a, b)
    for j in range(7):
        expect = sum(a[i] * b[j - i] for i in range(j + 1))
        assert abs(prod[j] - expect) <= 1e-9 * (1.0 + abs(expect))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(a=jet_coeffs, b=jet_coeffs)
def test_division_inverts_product(a, b):
    if abs(b[0]) < 0.1:
        b = b.copy()
        b[0] = 1.0 + 1j
    q = _mul(_div(a, b), b)
    np.testing.assert_allclose(q, a, rtol=0,
                               atol=1e-7 * (1.0 + np.abs(a).max()))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(a=jet_coeffs)
def test_exp_of_negation_is_reciprocal(a):
    # keep exponents moderate so exp() stays well conditioned
    a = a / 4.0
    prod = _mul(_exp(a), _exp(-a))
    expect = np.zeros(7, dtype=np.complex128)
    expect[0] = 1.0
    np.testing.assert_allclose(prod, expect, rtol=0, atol=1e-9)


def test_power_two_is_square():
    a = np.array([1.5 + 0.5j, -0.3, 0.2j, 0.7, -1.0, 0.1, 0.25j])
    np.testing.assert_allclose(_pow(a, 2.0), _mul(a, a),
                               rtol=1e-12, atol=1e-12)


def test_power_of_variable_is_binomial():
    # t^3 around t = 0.4, from the coefficients (0.4, 1, 0, ...) of t
    v = np.zeros(6, dtype=np.complex128)
    v[0], v[1] = 0.4, 1.0
    expect = [0.4 ** 3, 3 * 0.4 ** 2, 3 * 0.4, 1.0, 0.0, 0.0]
    np.testing.assert_allclose(_mul(_mul(v, v), v), expect, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(_pow(v, 3.0), expect, rtol=1e-14, atol=1e-15)


# --------------------------------------------------------- growth checking

_PHI_T = np.linspace(0.08, 0.92, 7)


def test_verify_gevrey_bound_accepts_true_bound():
    coeffs = step_jet(_PHI_T, 1.9, 12)
    worst = 0.0
    for j, row in enumerate(coeffs):
        for c in row:
            mag = abs(c * math.factorial(j))
            if mag > 0:
                worst = max(worst, math.exp(math.log(mag) - 1.9 * math.lgamma(j + 1)))
    bound = GevreyBound(M=worst * 1.01, R=1.0, s=1.9)
    ok, witness = verify_gevrey_bound(_PHI_T, coeffs, bound)
    assert ok and witness is None


def test_verify_gevrey_bound_reports_witness():
    coeffs = step_jet(_PHI_T, 1.9, 12)
    bound = GevreyBound(M=1e-12, R=1.0, s=1.9)
    ok, witness = verify_gevrey_bound(_PHI_T, coeffs, bound)
    assert not ok
    center, order = witness
    assert np.any(np.abs(center - _PHI_T) < 1e-15)
    assert 0 <= order <= 12
