"""Smoothness-weighted coefficient norms and the zeta constants they need.

The smoothness scale is indexed by a real ``alpha > 1``.  A frequency
vector ``k`` carries the weight ``prod_m max(1,|k_m|)**alpha`` and the norm
of a polynomial is the largest weighted coefficient modulus, so the unit
ball consists of series whose coefficients decay at least like the inverse
``alpha``-th power of that product.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import FourierPolynomial, _distinct_rows, require_positive


def require_alpha(alpha) -> float:
    """Validate a smoothness parameter: a finite real strictly above 1."""
    a = float(alpha)
    if not (a > 1.0) or math.isinf(a) or math.isnan(a):
        raise ValueError(f"smoothness parameter must satisfy alpha > 1, got {alpha!r}")
    return a


def zeta_floor(alpha) -> float:
    """Smallest ``riemann_zeta`` tolerance: 8 ulp of ``1 + 1/(alpha-1) > zeta(alpha)`` (its sum errs by <= 3.3 ulp)."""
    return 8.0 * math.ulp(1.0 + 1.0 / (require_alpha(alpha) - 1.0))


def riemann_zeta(alpha, tol=None) -> float:
    """Evaluate ``sum_{m>=1} m**-alpha`` to absolute accuracy ``tol``.

    A partial sum over ``m <= M`` is completed with the integral of the
    summand plus the first two Euler-Maclaurin corrections; for the
    completely monotone summand the neglected remainder is below
    ``alpha*(alpha+1)*(alpha+2) * M**(-alpha-3) / 720``, and ``M`` is chosen
    so twice that bound is at most ``tol``.  This keeps the term count small
    (about a thousand at most) uniformly in ``alpha > 1``, where a plain
    truncated sum would need astronomically many terms as ``alpha``
    approaches 1.  ``tol`` defaults to ``1e-12`` or, where larger,
    ``zeta_floor(alpha)``; a given ``tol`` below that floor is refused.
    """
    a = require_alpha(alpha)
    tol = max(1e-12, zeta_floor(a)) if tol is None else require_positive(tol, "tolerance")
    if tol < zeta_floor(a):
        raise ValueError(f"tolerance {tol!r} is below {zeta_floor(a):.3g}, the float floor of zeta({a!r})")
    ratio = a * (a + 1.0) * (a + 2.0) / 360.0 / tol  # infinite only where its (alpha+3)-th root is near 1
    m_cut = max(10, math.ceil(ratio ** (1.0 / (a + 3.0)))) if ratio < math.inf else 10
    partial = math.fsum(m ** -a for m in range(1, m_cut + 1))
    tail = (
        m_cut ** (1.0 - a) / (a - 1.0)
        - 0.5 * m_cut ** -a
        + (a / 12.0) * m_cut ** (-a - 1.0)
    )
    return partial + tail


def korobov_weight(k, alpha) -> float:
    """Weight ``prod_m max(1,|k_m|)**alpha`` of a frequency vector: the norm of ``exp(2*pi*i*k.x)``.

    The integer product is formed exactly before the single floating-point
    power; an ``OverflowError`` is raised if the weight exceeds the float range.
    """
    key = tuple(k)
    return korobov_norm(FourierPolynomial(len(key), {key: 1.0}), alpha)


def korobov_norm(f: FourierPolynomial, alpha) -> float:
    """Largest weighted coefficient modulus of ``f`` (0 for the zero series).

    Each distinct row of factors ``max(1, |k_m|)`` has its product formed
    exactly in Python ints and its weight ``float(p) ** alpha`` taken once;
    moduli are ``hypot(re, im)``, as ``abs`` of a complex.  An
    ``OverflowError`` is raised if a weight or the norm exceeds the float range.
    """
    a = require_alpha(alpha)
    rows, index = _distinct_rows(np.maximum(np.abs(f.keys), 1))
    with np.errstate(over="ignore"):
        try:
            weights = np.array([float(math.prod(row)) ** a for row in rows.tolist()])[index]
            norm = float(np.max(np.hypot(f.coeffs.real, f.coeffs.imag) * weights, initial=0.0))
        except OverflowError:  # float() of a product, or its power
            norm = math.inf
    if norm == math.inf:
        raise OverflowError("the Korobov norm overflowed the float range (1.8e308)")
    return norm
