"""Cubature rules on the unit cube and their exact worst-case errors.

A rule is a finite list of nodes in ``[0,1)^d`` with arbitrary complex
weights; applying it to a polynomial sums weighted point values.  The
product rectangle rule samples the ``2^d`` half-integer grid points with
equal weights; when some coordinates are interchangeable it folds onto one
node per orbit, with the orbit size absorbed into the weight, shrinking
the node count to ``critical_node_count`` without changing any value on
invariant integrands.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatchError
from .fourier import (
    FourierPolynomial,
    _collect,
    _distinct_rows,
    evaluate_at_points,
    random_polynomial,
    reading,
    reject_bools_and_strings,
    reject_nulls_and_lists,
    require_dimension,
    require_integral,
    require_positive,
)
from .korobov import require_alpha, riemann_zeta, zeta_floor
from .symmetry import (
    DEFAULT_ENUMERATION_CAP,
    InvariancePattern,
    _binary_orbit_size_classes,
    canonical_binary_vectors,
    symmetrize,
)

#: ``bench`` doubles its loop count until a timing lasts this long (seconds).
MIN_TIMING_S = 0.02


class CubatureRule:
    """Nodes in ``[0,1)^d`` with complex weights; ``n = 0`` is the zero rule.

    Parameters
    ----------
    dim : int
    nodes : array_like, shape (n, dim)
    weights : array_like, shape (n,), complex
    """

    __slots__ = ("_dim", "_nodes", "_weights")

    def __init__(self, dim, nodes, weights):
        dim = require_dimension(dim)
        nodes = np.asarray(nodes, dtype=np.float64)
        if not nodes.size:
            nodes = np.zeros((0, dim))
        elif nodes.ndim != 2 or nodes.shape[1] != dim:
            raise ValueError(f"nodes must have shape (n, {dim}), got {nodes.shape}")
        weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts differ")
        if nodes.size and (not np.all(np.isfinite(nodes)) or np.any(nodes < 0.0) or np.any(nodes >= 1.0)):
            raise ValueError("node coordinates must lie in [0, 1)")
        if weights.size and not np.all(np.isfinite(weights.view(np.float64))):
            raise ValueError("weights must be finite")
        self._dim = dim
        self._nodes = nodes
        self._nodes.setflags(write=False)
        self._weights = weights
        self._weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n_nodes(self) -> int:
        return int(self._nodes.shape[0])

    def weight_abs_sum(self) -> float:
        return float(np.sum(np.abs(self._weights))) if self.n_nodes else 0.0

    def __repr__(self):
        return f"CubatureRule(dim={self._dim}, n_nodes={self.n_nodes})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self._dim,
            "nodes": self._nodes.tolist(),
            "weights": [{"re": w.real, "im": w.imag} for w in self._weights.tolist()],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CubatureRule":
        with reading("rule JSON"):
            rows, terms = data["nodes"], data["weights"]
            coords = list(chain.from_iterable(rows))
            re, im = [w["re"] for w in terms], [w["im"] for w in terms]
            reject_bools_and_strings([data["dim"]], "rule JSON")
            kinds = reject_bools_and_strings(chain(coords, re, im), "rule JSON")
            if len(set(map(len, rows))) > 1:
                raise ValueError("node rows differ in length")
            nodes = np.array(coords, dtype=np.float64).reshape(len(rows), -1) if rows else []
            weights = np.empty(len(terms), dtype=np.complex128)
            weights.real, weights.imag = np.array(re, dtype=np.float64), np.array(im, dtype=np.float64)
            reject_nulls_and_lists(kinds, "rule JSON")  # numpy refused other lists itself
            return cls(data["dim"], nodes, weights)


def apply_rule(rule: CubatureRule, f: FourierPolynomial) -> complex:
    """Weighted sum of point values, ``sum_n w_n f(t_n)``.

    The zero-node rule and the zero polynomial give 0.  When every node
    lies on the half-integer grid ``{0, 1/2}^d`` (all rectangle and folded
    rules do), each character at a node is a sign, and the value is
    ``sum_k c_k * W(k mod 2)`` with ``W(p) = sum_n w_n (-1)^(p.b_n)`` for
    the node ``t_n = b_n / 2``; no exponential is computed.  ``W`` is
    formed once per parity class ``p`` among the frequencies, so the cost
    is one sign per node and class.  For real dyadic weights (every rule
    that ``rule`` writes) ``W`` is exact, each product ``c_k W`` is rounded
    once and the products are summed exactly, so the value depends neither
    on node order nor on the BLAS build.  Other rules evaluate every term
    at every node; that route may reassociate sums, which moves the result
    by at most about ``1e-12 * (1 + sum|w_n|) * sum|c_k|``.
    """
    if rule.dim != f.dim:
        raise DimensionMismatchError("rule and polynomial dimensions differ")
    if rule.n_nodes == 0 or len(f) == 0:
        return 0j
    bits = rule.nodes * 2.0
    if np.array_equal(bits, np.floor(bits)):  # nodes in [0, 1): bits are 0 or 1
        return _apply_by_parity(bits, rule.weights, f)
    values = evaluate_at_points(f, rule.nodes)
    return complex(np.dot(rule.weights, values))


def _apply_by_parity(bits, weights, f):
    """``apply_rule`` at the nodes ``bits / 2``, ``bits`` a 0/1 float array."""
    class_bytes, inverse = _distinct_rows(np.packbits(f.keys & 1, axis=1))

    # W(p) = sum(w) - 2 * (sum of w_n over the nodes where p.b_n is odd), with no BLAS
    # product: a threaded BLAS leaves its idle workers spinning on a second core.
    node_bytes = np.packbits(bits != 0, axis=1)
    w_parts = np.stack([weights.real, weights.imag])
    odd_sums = np.zeros((2, len(class_bytes)))
    chunk = max(1, (1 << 18) // len(class_bytes))
    for lo in range(0, len(node_bytes), chunk):
        odd = node_bytes[lo:lo + chunk, :1] & class_bytes[:, 0]
        for j in range(1, class_bytes.shape[1]):  # XOR the bytes of p & b_n, then the bits
            odd ^= node_bytes[lo:lo + chunk, j:j + 1] & class_bytes[:, j]
        for shift in (4, 2, 1):
            odd ^= odd >> shift
        odd_sums += np.einsum("kn,nc->kc", w_parts[:, lo:lo + chunk], (odd & 1).astype(np.float64))
    w_hat = w_parts.sum(axis=1)[:, None] - 2.0 * odd_sums
    products = f.coeffs * (w_hat[0] + 1j * w_hat[1])[inverse]
    return complex(math.fsum(products.real.tolist()), math.fsum(products.imag.tolist()))


def rectangle_rule(dim, node_cap=DEFAULT_ENUMERATION_CAP) -> CubatureRule:
    """Product rectangle rule: ``2^d`` nodes ``j/2``, equal weights ``2^-d``.

    The folded rule of the trivial pattern, whose orbits are single points;
    refused beyond ``node_cap`` nodes (by default beyond ``d = 26``).
    """
    return folded_rectangle_rule(InvariancePattern.trivial(dim), node_cap=node_cap)


def folded_rectangle_rule(
    pattern: InvariancePattern, node_cap=DEFAULT_ENUMERATION_CAP
) -> CubatureRule:
    """Rectangle rule folded onto canonical orbit representatives.

    One node per canonical 0/1 vector, placed at the half-integer point and weighted by
    ``orbit_size / 2^d``, rounded once from the exact ints.  While the orbit sizes stay below
    ``2^53`` every weight is that exact dyadic rational, so the weights sum to 1 without rounding,
    and the rule agrees with the full rectangle rule on all invariant integrands.  Past ``d`` of
    about 1074 the smallest weights round to 0.
    """
    vectors, index, weights = _folded_classes(pattern, node_cap)
    return CubatureRule(pattern.dim, vectors * 0.5, weights[index])


def _folded_classes(pattern, node_cap):
    """The canonical 0/1 vectors (``uint8`` rows), each one's weight class, and the class weights ``size / 2**d``."""
    vectors, ones = canonical_binary_vectors(pattern, cap=node_cap)
    sizes, index = _binary_orbit_size_classes(pattern, ones)
    return vectors, index, np.array([size / 2**pattern.dim for size in sizes.tolist()])


def _time_apply(rule, poly, loops):
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            value = apply_rule(rule, poly)
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_TIMING_S or loops >= 1 << 16:
            return elapsed / loops, value
        loops *= 2


def bench(dims, fractions, repetitions=3, seed=0, n_terms=8):
    """Node counts, timings, and agreement of folded vs full rules.

    For each dimension and invariant fraction, an invariant integrand is
    built by orbit-averaging a random low-frequency polynomial (ones-count
    at most 2, so orbit sizes stay small) and both rules are timed on it.
    Returns a list of row dicts; a fraction outside ``[0, 1]``, an empty
    ``dims`` or ``fractions``, or ``repetitions`` below 1 is refused.
    """
    repetitions = require_integral(repetitions, "repetitions")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not dims or not fractions:
        raise ValueError("bench needs at least one dimension and one invariant fraction")
    if not all(0 <= fraction <= 1 for fraction in fractions):
        raise ValueError(f"invariant fractions must lie in [0, 1], got {list(fractions)!r}")
    rng = np.random.default_rng(seed)
    rows = []
    for dim in dims:
        for fraction in fractions:
            inv = int(round(fraction * dim))
            pattern = InvariancePattern.single(dim, range(1, inv + 1))
            full = rectangle_rule(dim)
            folded = folded_rectangle_rule(pattern)
            base = random_polynomial(dim, n_terms, rng, max_magnitude=1)
            # at most two nonzero entries per frequency keep orbit sizes (and so the support) moderate
            keys = np.where(np.cumsum(base.keys != 0, axis=1) > 2, 0, base.keys)
            poly = symmetrize(_collect(dim, keys, base.coeffs) + FourierPolynomial(dim, {(0,) * dim: 1.0}), pattern)
            t_full, v_full = _time_apply(full, poly, repetitions)
            t_folded, v_folded = _time_apply(folded, poly, repetitions)
            rows.append(
                {
                    "dim": dim,
                    "invariant_count": inv,
                    "nodes_full": full.n_nodes,
                    "nodes_folded": folded.n_nodes,
                    "time_full_s": t_full,
                    "time_folded_s": t_folded,
                    "speedup": t_full / t_folded,
                    "max_abs_diff": abs(v_full - v_folded),
                }
            )
    return rows


def initial_error(alpha) -> float:
    """Worst-case error of the zero rule on the unit ball: exactly 1.

    Attained by the constant function 1, whose norm and integral are both 1.
    """
    require_alpha(alpha)
    return 1.0


@dataclass(frozen=True)
class ErrorReport:
    """Worst-case error of the rectangle rule, from two independent routes.

    ``closed_form`` evaluates ``(1 + zeta(alpha)/2**(alpha-1))**d - 1``;
    ``oracle_value`` sums the even-frequency weights directly through a
    truncated one-dimensional factor; ``tail_bound`` is a rigorous bound on
    how far the two may lie apart (truncation, zeta tolerance and rounding).
    """

    closed_form: float
    oracle_value: float
    tail_bound: float


def _closed_form(dim: int, a: float, tol: float):
    """The closed form ``(1 + step)^d - 1``, ``step = 2^(1-a) zeta(a)``, and zeta's tolerance.

    zeta is asked for ``tol / (4 d)``, raised to ``zeta_floor(a)`` unless ``tol`` is below it (refused there).
    """
    zeta_tol = max(tol / (4.0 * dim), min(tol, zeta_floor(a)))
    step = riemann_zeta(a, zeta_tol) * 2.0 ** (1.0 - a)
    log_closed = dim * math.log1p(step)  # 0.0 exactly when 2^(1-a) underflows
    if not 0.0 < log_closed <= math.log(np.finfo(np.float64).max):  # beyond it expm1 overflows
        side = "exceeds the float range (1.8e308)" if log_closed else "underflows: 2^(1-alpha) is below 4.9e-324"
        raise OverflowError(f"the closed form {side}")
    return math.expm1(log_closed), step, zeta_tol


def rectangle_worst_case_error(dim, alpha, tol=1e-9) -> ErrorReport:
    """Worst-case integration error of the ``2^d``-node rectangle rule.

    The rule reproduces exactly the modes whose frequencies are all even,
    so the worst-case error over the unit ball is the summed weight of the
    nonzero even frequency vectors.  That lattice sum factorizes per
    coordinate, giving the closed form; the report also carries an
    independently truncated evaluation of the same factorization and a
    bound covering its truncation tail and the zeta tolerance.

    Parameters
    ----------
    dim : int
    alpha : float, > 1
    tol : float, > 0
        Accuracy request, refused below ``zeta_floor(alpha)``; zeta is asked
        for no more than that floor, the truncation index is capped at
        ``2^20`` terms, and ``tail_bound`` reports the bound achieved.

    Raises ``OverflowError`` when the closed form exceeds ``1.8e308`` or
    ``2^(1-alpha)`` underflows to 0.
    """
    dim, a = require_dimension(dim), require_alpha(alpha)
    tol = require_positive(tol, "tolerance")
    closed, step, zeta_tol = _closed_form(dim, a, tol)
    two_pow = 2.0 ** (1.0 - a)
    factor_closed = 1.0 + step

    # One-dimensional even-frequency factor, plainly truncated at m_cut.
    target = tol / (2.0 * dim * max(1.0, factor_closed) ** (dim - 1) * two_pow) * (a - 1.0)
    # target ** (-1/(a-1)) overflows for alpha near 1: take it only below the cap
    cap = 1 << 20
    if target > 0 and -math.log(target) / (a - 1.0) < math.log(cap):
        m_cut = min(cap, max(64, math.ceil(target ** (-1.0 / (a - 1.0)))))
    else:
        m_cut = cap
    m = np.arange(1, m_cut + 1, dtype=np.float64)
    partial = float(np.sum(m ** -a))
    factor_trunc = 1.0 + two_pow * partial
    oracle = math.expm1(dim * math.log1p(two_pow * partial))

    # |x^d - y^d| <= d * max(x,y)^(d-1) * |x - y| with x,y >= 1.
    one_dim_tail = two_pow * m_cut ** (1.0 - a) / (a - 1.0)
    factor_up = max(factor_closed + zeta_tol * two_pow, factor_trunc + one_dim_tail)
    bound = dim * factor_up ** (dim - 1) * (one_dim_tail + zeta_tol * two_pow) + 1e-12
    # Rounding: about 25u relative per factor (mostly the pairwise sum), scaled by 1 + log(1 + closed).
    rounding = 2.0**-48 * (1.0 + dim * math.log1p(step)) * max(closed, oracle)
    return ErrorReport(closed_form=closed, oracle_value=oracle, tail_bound=bound + rounding)
