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

from .fourier import FourierPolynomial


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
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
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
    """Weight ``prod_m max(1,|k_m|)**alpha`` of a frequency vector: the norm of ``exp(2*pi*i*k.x)``.

    The integer product is formed exactly before the single floating-point
    power; an ``OverflowError`` is raised if it exceeds the float range.
    """
    key = tuple(k)
    return korobov_norm(FourierPolynomial(len(key), {key: 1.0}), alpha)


def korobov_norm(f: FourierPolynomial, alpha) -> float:
    """Largest weighted coefficient modulus of ``f`` (0 for the zero series).

    Each key's product ``p`` of ``max(1, |k_m|)`` is exact (``int64`` below
    ``2^62``, else Python ints); ``float(p) ** alpha`` is taken once per
    distinct ``p``, and moduli are ``hypot(re, im)``, as ``abs`` of a complex.
    """
    a = require_alpha(alpha)
    factors = np.maximum(np.abs(f.keys), 1)
    wide = np.log2(factors).sum(axis=1) >= 62.0
    products, index = np.unique(np.where(wide, 1, np.prod(factors, axis=1)), return_inverse=True)
    weights = np.array([float(p) ** a for p in products.tolist()])[index]
    weights[wide] = [float(math.prod(row)) ** a for row in factors[wide].tolist()]
    return float(np.max(np.hypot(f.coeffs.real, f.coeffs.imag) * weights, initial=0.0))
