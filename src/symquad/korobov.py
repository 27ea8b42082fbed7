"""Smoothness-weighted coefficient norms and the zeta constants they need.

The smoothness scale is indexed by a real ``alpha > 1``.  A frequency
vector ``k`` carries the weight ``prod_m max(1,|k_m|)**alpha`` and the norm
of a polynomial is the largest weighted coefficient modulus, so the unit
ball consists of series whose coefficients decay at least like the inverse
``alpha``-th power of that product.
"""

from __future__ import annotations

import math

from .fourier import FourierPolynomial, validate_multi_index


def require_alpha(alpha) -> float:
    """Validate a smoothness parameter: a finite real strictly above 1."""
    a = float(alpha)
    if not (a > 1.0) or math.isinf(a) or math.isnan(a):
        raise ValueError(f"smoothness parameter must satisfy alpha > 1, got {alpha!r}")
    return a


def riemann_zeta(alpha, tol=1e-12) -> float:
    """Evaluate ``sum_{m>=1} m**-alpha`` to absolute accuracy ``tol``.

    A partial sum over ``m <= M`` is completed with the integral of the
    summand plus the first two Euler-Maclaurin corrections; for the
    completely monotone summand the neglected remainder is below
    ``alpha*(alpha+1)*(alpha+2) * M**(-alpha-3) / 720``, and ``M`` is chosen
    so twice that bound is at most ``tol``.  This keeps the term count small
    (a few hundred) uniformly in ``alpha > 1``, where a plain truncated sum
    would need astronomically many terms as ``alpha`` approaches 1.
    """
    a = require_alpha(alpha)
    tol = float(tol)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    c = a * (a + 1.0) * (a + 2.0) / 360.0
    m_cut = max(10, math.ceil((c / tol) ** (1.0 / (a + 3.0))))
    partial = math.fsum(m ** -a for m in range(1, m_cut + 1))
    tail = (
        m_cut ** (1.0 - a) / (a - 1.0)
        - 0.5 * m_cut ** -a
        + (a / 12.0) * m_cut ** (-a - 1.0)
    )
    return partial + tail


def korobov_weight(k, alpha) -> float:
    """Weight ``prod_m max(1,|k_m|)**alpha`` of a frequency vector.

    The integer product is formed exactly before the single floating-point
    power; an ``OverflowError`` is raised if it exceeds the float range.
    """
    a = require_alpha(alpha)
    return _weight(validate_multi_index(k), a)


def _weight(key, a) -> float:
    """``korobov_weight`` without the checks: the product of the nonzero ``|k_m|``."""
    return float(math.prod(map(abs, filter(None, key)))) ** a


def korobov_norm(f: FourierPolynomial, alpha) -> float:
    """Largest weighted coefficient modulus of ``f`` (0 for the zero series)."""
    a = require_alpha(alpha)
    return max((abs(c) * _weight(k, a) for k, c in f.terms.items()), default=0.0)
