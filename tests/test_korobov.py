"""Norm, weight, and zeta evaluation against analytic and brute-force oracles."""

import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquad import FourierPolynomial, korobov_norm, korobov_weight, riemann_zeta
from symquad.korobov import zeta_floor

PI = math.pi

# 1e8-term partial sum of m**-1.5 plus the integral-tail bracket midpoint,
# bracket half width 5.0e-13 (recorded from the brute-force oracle run).
ZETA_1_5_ORACLE = 2.6123753486854904


def test_zeta_known_values():
    assert riemann_zeta(2, 1e-10) == pytest.approx(PI**2 / 6, abs=1e-10)
    assert riemann_zeta(4, 1e-10) == pytest.approx(PI**4 / 90, abs=1e-10)


def test_zeta_against_partial_sum_oracle():
    assert abs(riemann_zeta(1.5, 1e-6) - ZETA_1_5_ORACLE) <= 1e-6 + 1e-9


def test_zeta_tolerance_consistency():
    for alpha in (1.1, 1.5, 2.0, 3.0, 6.0, 50.0):
        for tol in (1e-6, 1e-9, 1e-12):
            loose = riemann_zeta(alpha, tol)
            tight = riemann_zeta(alpha, tol / 10)
            assert abs(loose - tight) <= 2 * tol


def test_zeta_domain_errors():
    with pytest.raises(ValueError):
        riemann_zeta(1.0, 1e-6)
    with pytest.raises(ValueError):
        riemann_zeta(0.5, 1e-6)
    with pytest.raises(ValueError):
        riemann_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        riemann_zeta(2.0, -1e-9)


def test_weight_examples():
    assert korobov_weight((0, 0, 0), 7.3) == 1.0
    assert korobov_weight((2, -3), 2) == 36.0
    assert korobov_weight((1, 0, -5), 1.5) == pytest.approx(11.180339887498949, rel=1e-15)


def test_weight_overflow():
    big = (2**31 - 1,) * 40
    with pytest.raises(OverflowError):
        korobov_weight(big, 2.0)


@pytest.mark.parametrize(
    "k, alpha",
    [
        ((2**31 - 1,) * 40, 2.0),  # the product itself, about 2^1240, has no float
        ((2**31 - 1,) * 9, 4.0),  # the product, about 2^279, does; its 4th power does not
    ],
)
def test_weight_beyond_the_float_range_names_it(k, alpha):
    with pytest.raises(OverflowError, match=r"overflowed the float range \(1\.8e308\)"):
        korobov_weight(k, alpha)


@pytest.mark.parametrize(
    "f, alpha",
    [
        (FourierPolynomial(1, {(100000,): 1e300}), 2.0),  # weight 1e10, so the weighted modulus is 1e310
        (FourierPolynomial(2, {(0, 0): complex(1.7e308, 1.7e308)}), 2.0),  # the modulus alone
        (FourierPolynomial(2, {(0, 0): 1.0, (2**31 - 1, 2**31 - 1): 1e-300}), 20.0),  # a weight alone, about 2^1240
    ],
)
def test_norm_beyond_the_float_range_is_refused_without_a_warning(f, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"overflowed the float range \(1\.8e308\)"):
            korobov_norm(f, alpha)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
    st.floats(min_value=1.01, max_value=8.0),
)
def test_weight_at_least_one(k, alpha):
    w = korobov_weight(tuple(k), alpha)
    assert w >= 1.0
    if all(e in (-1, 0, 1) for e in k):
        assert w == 1.0
    else:
        assert w > 1.0


def test_norm_examples():
    assert korobov_norm(FourierPolynomial(1, {(0,): 1.0}), 2) == 1.0
    f = FourierPolynomial(2, {(1, 1): 0.5, (2, 0): 0.1})
    # enumerate-support oracle: max(0.5 * 1, 0.1 * 4)
    assert korobov_norm(f, 2) == pytest.approx(0.5, rel=1e-15)
    assert korobov_norm(FourierPolynomial(3, {}), 2) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=1.1, max_value=6.0),
)
def test_norm_homogeneity(re, im, alpha):
    c = complex(re, im)
    f = FourierPolynomial(2, {(1, -2): 0.7 + 0.1j, (0, 3): -0.25j, (0, 0): 1.0})
    lhs = korobov_norm(c * f, alpha)
    rhs = abs(c) * korobov_norm(f, alpha)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_integral_bounded_by_norm():
    f = FourierPolynomial(2, {(0, 0): 0.3 - 0.4j, (1, 1): 0.9, (5, 2): 0.001})
    for alpha in (1.5, 2.0, 4.0):
        assert abs(f.integral()) <= korobov_norm(f, alpha) + 1e-15


@pytest.mark.parametrize("alpha", [1 + 1e-12, 1 + 1e-6, 1.01, 1.5, 2.0, 6.0, 50.0, 1100.0])
def test_zeta_at_its_floor_is_within_the_floor(alpha):
    floor = zeta_floor(alpha)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(riemann_zeta(alpha, floor)) - mpmath.zeta(alpha)) <= floor
    with pytest.raises(ValueError, match="is below"):
        riemann_zeta(alpha, floor / 2)


@pytest.mark.parametrize("alpha", [1 + 1e-9, 1.0001, 1.001, 2.0])
def test_zeta_default_tolerance_is_reachable_near_1(alpha):
    # the default 1e-12 is below the floor for alpha under about 1.0001: it is raised to the floor
    tol = max(1e-12, zeta_floor(alpha))
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(riemann_zeta(alpha)) - mpmath.zeta(alpha)) <= tol


@pytest.mark.parametrize("alpha", [1e5, 1e100, 1e300])
def test_zeta_for_huge_alpha(alpha):
    # alpha (alpha+1) (alpha+2) / 360 / tol overflows for alpha above about 1e98 at tol = 1e-12
    assert riemann_zeta(alpha) == 1.0


def test_zeta_refuses_an_unreachable_tolerance_at_once():
    with pytest.raises(ValueError, match="tolerance 1e-300 is below"):
        riemann_zeta(2.0, 1e-300)  # would have summed about 10^60 terms
