"""Step profile, truncated-jet algebra, and derivative-growth certification."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schroflat import ComplexJet, step_function, step_jet
from schroflat.gevrey import MAX_JET_ORDER

from conftest import assert_close
from oracles import GevreyBound, verify_gevrey_bound


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
    assert_close(jet.coeffs[1], -1.3374891951557531831, rel=1e-12)
    assert_close(jet.coeffs[5], -122.08915180790946489, rel=1e-12)
    assert_close(jet.coeffs[10], 16561.588438973080419, rel=1e-12)
    jet2 = step_jet(0.5, 1.6, 10)
    assert_close(jet2.coeffs[7], 157437.46544729052878, rel=1e-12)


def test_step_jet_value_matches_pointwise():
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        jet = step_jet(t, 1.7, 6)
        assert abs(jet.value - step_function(t, 1.7)) < 1e-13
        assert jet.coeffs.imag.max() == 0.0


def test_step_jet_first_coefficient_matches_difference_quotient():
    t, h = 0.4, 1e-6
    fd = (step_function(t + h, 1.8) - step_function(t - h, 1.8)) / (2 * h)
    jet = step_jet(t, 1.8, 3)
    assert abs(jet.coeffs[1].real - fd) < 1e-7 * abs(fd)


def test_step_jet_snaps_in_flat_tails():
    # deep inside a boundary layer one exponential underflows and the
    # profile is constant in double precision; the jet must be exactly so
    left = step_jet(0.01, 1.2, 8)
    right = step_jet(0.99, 1.2, 8)
    assert left.value == 1.0 and np.all(left.coeffs[1:] == 0.0)
    assert right.value == 0.0 and np.all(right.coeffs == 0.0)
    assert step_jet(-1.0, 1.5, 4).value == 1.0
    assert step_jet(2.0, 1.5, 4).value == 0.0


def test_step_jet_double_underflow_is_an_error():
    # s -> 1 makes both exponentials underflow mid-interval; silently
    # returning a constant would corrupt downstream series
    with pytest.raises(ValueError, match="underflow"):
        step_jet(0.5, 1.001, 4)


def test_step_jet_order_cap():
    with pytest.raises(ValueError):
        step_jet(0.5, 1.9, MAX_JET_ORDER + 1)
    assert step_jet(0.5, 1.9, MAX_JET_ORDER).order == MAX_JET_ORDER


# ------------------------------------------------------------- jet algebra

def _jet(coeffs, center=0.3):
    return ComplexJet(center, np.asarray(coeffs, dtype=np.complex128))


finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                              allow_nan=False, allow_infinity=False)
jet_coeffs = hnp.arrays(np.complex128, 7, elements=finite_c)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(a=jet_coeffs, b=jet_coeffs)
def test_product_is_cauchy_convolution(a, b):
    prod = _jet(a) * _jet(b)
    for j in range(7):
        expect = sum(a[i] * b[j - i] for i in range(j + 1))
        assert abs(prod.coeffs[j] - expect) <= 1e-9 * (1.0 + abs(expect))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(a=jet_coeffs, b=jet_coeffs)
def test_division_inverts_product(a, b):
    if abs(b[0]) < 0.1:
        b = b.copy()
        b[0] = 1.0 + 1j
    q = (_jet(a) / _jet(b)) * _jet(b)
    np.testing.assert_allclose(q.coeffs, a, rtol=0,
                               atol=1e-7 * (1.0 + np.abs(a).max()))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(a=jet_coeffs)
def test_exp_of_negation_is_reciprocal(a):
    # keep exponents moderate so exp() stays well conditioned
    a = a / 4.0
    prod = _jet(a).exp() * _jet(-np.asarray(a)).exp()
    expect = np.zeros(7, dtype=np.complex128)
    expect[0] = 1.0
    np.testing.assert_allclose(prod.coeffs, expect, rtol=0, atol=1e-9)


def test_power_two_is_square():
    a = _jet([1.5 + 0.5j, -0.3, 0.2j, 0.7, -1.0, 0.1, 0.25j])
    np.testing.assert_allclose(a.power(2.0).coeffs, (a * a).coeffs,
                               rtol=1e-12, atol=1e-12)


def test_variable_jet_and_derivative_scaling():
    v = ComplexJet.variable(0.4, 5)
    cube = v * v * v
    # (t)^3 around 0.4: binomial coefficients
    expect = [0.4 ** 3, 3 * 0.4 ** 2, 3 * 0.4, 1.0, 0.0, 0.0]
    np.testing.assert_allclose(cube.coeffs, expect, rtol=1e-14, atol=1e-15)
    assert cube.derivative(2) == cube.coeffs[2] * 2.0
    assert cube.derivative(3) == pytest.approx(6.0)


def test_jet_validation():
    a = _jet([1.0, 2.0], center=0.1)
    b = _jet([1.0, 2.0], center=0.2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * _jet([1.0, 2.0, 3.0], center=0.1)
    with pytest.raises(ZeroDivisionError):
        a / _jet([0.0, 1.0], center=0.1)
    with pytest.raises(ZeroDivisionError):
        _jet([0.0, 1.0]).power(0.5)
    with pytest.raises(ValueError):
        a.derivative(5)
    with pytest.raises(ValueError):
        ComplexJet(0.0, np.array([np.inf + 0j]))


# --------------------------------------------------------- growth checking

def _phi_jets(s, order=12):
    return [step_jet(t, s, order) for t in np.linspace(0.08, 0.92, 7)]


def test_verify_gevrey_bound_accepts_true_bound():
    jets = _phi_jets(1.9)
    worst = 0.0
    for jet in jets:
        for j in range(jet.order + 1):
            mag = abs(jet.derivative(j))
            if mag > 0:
                worst = max(worst, math.exp(math.log(mag) - 1.9 * math.lgamma(j + 1)))
    bound = GevreyBound(M=worst * 1.01, R=1.0, s=1.9)
    ok, witness = verify_gevrey_bound(jets, bound)
    assert ok and witness is None


def test_verify_gevrey_bound_reports_witness():
    jets = _phi_jets(1.9)
    bound = GevreyBound(M=1e-12, R=1.0, s=1.9)
    ok, witness = verify_gevrey_bound(jets, bound)
    assert not ok
    center, order = witness
    assert any(abs(center - j.center) < 1e-15 for j in jets)
    assert 0 <= order <= 12
