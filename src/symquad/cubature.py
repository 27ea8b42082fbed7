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
    _evaluate,
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
    _enumeration_count,
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

    The rule shares memory with array arguments that need no conversion:
    its ``nodes`` and ``weights`` are read-only views, and the caller's arrays stay writable.
    The nodes and weights are checked here only, so writing to the caller's
    arrays afterwards changes the rule without its checks; a copy would
    double the peak memory of a large rule.
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
        if nodes.size and not (nodes.min() >= 0.0 and nodes.max() < 1.0):  # NaN fails both, -0.0 passes
            raise ValueError("node coordinates must lie in [0, 1)")
        if weights.size and not np.all(np.isfinite(weights.view(np.float64))):
            raise ValueError("weights must be finite")
        self._dim, self._nodes, self._weights = dim, nodes.view(), weights
        self._nodes.flags.writeable = self._weights.flags.writeable = False

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
    the node ``t_n = b_n / 2``; no exponential is computed.  The grid test
    compares the nodes with ``0.5`` and ``0.0`` (``-0.0`` included) and
    counts the matches, and its boolean mask gives the bits ``b_n``.  ``W``
    is formed once per parity class ``p`` among the frequencies, so the
    cost is one sign per node and class.  For real dyadic weights (every
    rule that ``rule`` writes) ``W`` is exact, each product ``c_k W`` is
    rounded once and the products are summed exactly, so the value depends
    neither on node order nor on the BLAS build.  Other rules evaluate
    every term at every node; that route may reassociate sums, which moves
    the result by at most about ``1e-12 * (1 + sum|w_n|) * sum|c_k|``.  An
    overflow on either route raises ``OverflowError``.
    """
    return _finite(_rule_values(rule, f)[0])


def _rule_values(rule: CubatureRule, f: FourierPolynomial, *more) -> list:
    """``apply_rule`` of ``f`` and of each polynomial in ``more``, before the overflow check (``_finite``).

    Off the grid, polynomials with ``f``'s keys share one set of exponentials (``fourier._evaluate``).
    """
    if rule.dim != f.dim:
        raise DimensionMismatchError("rule and polynomial dimensions differ")
    polys = (f, *more)
    if rule.n_nodes == 0 or len(f) == 0:
        return [0j for _ in polys]
    half = rule.nodes == 0.5
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _finite, with no warning
        # the nodes lie in [0, 1), so 2t is whole exactly when t is 0.0 (or -0.0) or 0.5
        if np.count_nonzero(half) + np.count_nonzero(rule.nodes == 0.0) == half.size:
            return [_apply_by_parity(half, rule.weights, g) if len(g) else 0j for g in polys]
        # alone, through the public name that the per-layer trace wraps
        columns = _evaluate(f, rule.nodes, *more) if more else [evaluate_at_points(f, rule.nodes)]
        return [complex(np.dot(rule.weights, c)) if len(g) else 0j for g, c in zip(polys, columns)]


def _finite(value: complex) -> complex:
    """A rule's value, refused with ``OverflowError`` unless both parts are finite."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError("the rule value overflowed the float range (1.8e308)")
    return value


def _apply_by_parity(half, weights, f):
    """``apply_rule`` at the nodes ``half / 2``, ``half`` a boolean array.

    Node rows and the classes of key parities are packed to bytes
    (``_packed_rows``, ``_parity_classes``); ``p.b_n`` is odd where the
    ``np.bitwise_count`` of ``p & b_n`` is.  ``W(p)`` is ``sum(w)`` less twice
    the odd nodes' weights (``_parity_sums``); where that overflows, a
    second pass sums the class's even nodes apart, so ``W(p)`` stays finite
    whenever both of its halves are.
    """
    class_bytes, inverse = _parity_classes(f.keys)
    node_bytes = _packed_rows(half, 8 * class_bytes.shape[1])

    # W(p) = sum(w) - 2 * (sum of w_n over the nodes where p.b_n is odd), with no BLAS
    # product: a threaded BLAS leaves its idle workers spinning on a second core.
    w_parts = np.stack([weights.real, weights.imag])
    odd_sums = _parity_sums(node_bytes, class_bytes, w_parts)
    w_hat = w_parts.sum(axis=1)[:, None] - 2.0 * odd_sums
    lost = ~np.isfinite(w_hat).all(axis=0)
    if lost.any():  # sum(w) or 2 * (odd sum) overflowed: W(p) = (even sum) - (odd sum) may not
        w_hat[:, lost] = _parity_sums(node_bytes, class_bytes[lost], w_parts, even=True) - odd_sums[:, lost]
    products = f.coeffs * (w_hat[0] + 1j * w_hat[1])[inverse]
    try:
        return complex(math.fsum(products.real.tolist()), math.fsum(products.imag.tolist()))
    except (ValueError, OverflowError):  # inf + -inf among the products, or finite ones whose sum overflows
        return complex(math.nan)  # apply_rule refuses it


def _parity_sums(node_bytes, class_bytes, w_parts, even=False):
    """The sums of ``w_parts``' rows over the nodes where ``p.b_n`` is odd (or even), one column per class ``p``.

    The nodes are taken in fixed chunks, each summed by ``np.einsum``.
    """
    sums = np.zeros((2, len(class_bytes)))
    chunk = max(1, (1 << 18) // len(class_bytes))
    for lo in range(0, len(node_bytes), chunk):
        odd = node_bytes[lo:lo + chunk, :1] & class_bytes[:, 0]
        if even:
            odd ^= 1  # one more set bit flips every parity
        for j in range(1, class_bytes.shape[1]):  # XOR the bytes of p & b_n, then count the bits
            odd ^= node_bytes[lo:lo + chunk, j:j + 1] & class_bytes[:, j]
        sums += np.einsum("kn,nc->kc", w_parts[:, lo:lo + chunk], (np.bitwise_count(odd) & 1).astype(np.float64))
    return sums


def _packed_rows(bits, width):
    """The rows of a 0/1 array as ``width / 8`` bytes each, as ``np.packbits(bits, axis=1)`` packs them, zero-padded.

    The rows are padded to ``width`` bits and packed by one flat ``np.packbits``,
    which is several times faster than packing along rows.
    """
    padded = np.zeros((len(bits), width), dtype=bool)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded.reshape(-1)).reshape(len(bits), -1)


def _parity_classes(keys):
    """The distinct rows of ``keys mod 2``, packed to ``ceil(d / 8)`` bytes, and each key's index among them.

    The classes sort like their bytes: each row is padded to whole 64-bit
    words, read as big-endian integers, and ``_distinct_rows`` groups these
    words (up to ``d = 64`` one column, which is its own sort key).
    """
    n_bytes = -(-keys.shape[1] // 8)
    codes, inverse = _distinct_rows(_packed_rows(keys & 1, 64 * -(-n_bytes // 8)).view(">u8"))
    return codes.view(np.uint8)[:, :n_bytes], inverse


def rectangle_rule(dim) -> CubatureRule:
    """Product rectangle rule: ``2^d`` nodes ``j/2``, equal weights ``2^-d``.

    The folded rule of the trivial pattern, whose orbits are single points;
    refused beyond ``DEFAULT_ENUMERATION_CAP`` nodes (beyond ``d = 26``).
    """
    return folded_rectangle_rule(InvariancePattern.trivial(dim))


def folded_rectangle_rule(pattern: InvariancePattern) -> CubatureRule:
    """Rectangle rule folded onto canonical orbit representatives.

    One node per canonical 0/1 vector, placed at the half-integer point and weighted by
    ``orbit_size / 2^d``, rounded once from the exact ints.  While the orbit sizes stay below
    ``2^53`` every weight is that exact dyadic rational, so the weights sum to 1 without rounding,
    and the rule agrees with the full rectangle rule on all invariant integrands.  Past ``d`` of
    about 1074 the smallest weights round to 0.
    """
    vectors, index, weights = _folded_classes(pattern)
    return CubatureRule(pattern.dim, vectors * 0.5, weights[index])


def _folded_classes(pattern, cap=DEFAULT_ENUMERATION_CAP):
    """The canonical 0/1 vectors (``uint8`` rows), each one's weight class, and the class weights ``size / 2**d``."""
    vectors, ones = canonical_binary_vectors(pattern, cap=cap)
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
    ``dims`` or ``fractions``, ``repetitions`` below 1, or a dimension whose
    rectangle rule exceeds the enumeration cap is refused before any rule
    is built.
    """
    repetitions = require_integral(repetitions, "repetitions")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not dims or not fractions:
        raise ValueError("bench needs at least one dimension and one invariant fraction")
    if not all(0 <= fraction <= 1 for fraction in fractions):
        raise ValueError(f"invariant fractions must lie in [0, 1], got {list(fractions)!r}")
    for dim in dims:  # refuse a dimension beyond the cap before any rule is built
        _enumeration_count(InvariancePattern.trivial(dim), None, DEFAULT_ENUMERATION_CAP)
    rng = np.random.default_rng(seed)
    rows = []
    for dim in dims:
        full = rectangle_rule(dim)
        for fraction in fractions:
            inv = int(round(fraction * dim))
            pattern = InvariancePattern.single(dim, range(1, inv + 1))
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
