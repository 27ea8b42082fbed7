"""Product-weighted coefficient norms and the weighted lower bound.

A weight schedule attaches a non-increasing sequence ``1 >= g_1 >= ... >=
g_d >= 0`` to the coordinates; the weight of a coefficient is the product
of the ``g_m`` over its support, and the norm divides each weighted
coefficient modulus by the square root of that product.  When some
coordinates are interchangeable, the support of an invariant function can
be rearranged within each block, so the effective weight of a frequency
vector is the minimum over all rearrangements: the product of the block's
smallest schedules.  The weights come from one array pass in ``float64``
for a float schedule and in exact types (fractions, ints) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cubature import CubatureRule
from .errors import (
    CertificateError,
    DimensionMismatchError,
    RefusalError,
    UnsupportedPatternError,
)
from .fooling import DEFAULT_CHECK_TOL, FoolingCertificate, _verified, construct_certificate
from .fourier import MultiIndex, reading, reject_bools_and_strings, require_dimension, require_integral
from .fourier import reject_nulls_and_lists, require_positive, validate_multi_index
from .symmetry import (
    InvariancePattern,
    canonical_binary_vectors,
    critical_node_count,
    orbit_members,
)

#: Largest dimension of the exhaustive (``4**d`` pairs) product inequality check.
SUPERMULTIPLICATIVITY_MAX_DIM = 6


@dataclass(frozen=True)
class WeightSchedule:
    """Per-coordinate importance factors, non-increasing in ``[0, 1]``."""

    dim: int
    gammas: tuple

    def __init__(self, dim, gammas):
        dim = require_dimension(dim)
        gammas = tuple(gammas)
        if len(gammas) != dim:
            raise DimensionMismatchError(f"expected {dim} weights, got {len(gammas)}")
        previous = 1
        for g in gammas:
            if not 0 <= g <= 1:
                raise ValueError(f"weights must lie in [0, 1], got {g!r}")
            if g > previous:
                raise ValueError("weights must be non-increasing")
            previous = g
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gammas", gammas)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "gammas": [float(g) for g in self.gammas]}

    @classmethod
    def from_json_dict(cls, data) -> "WeightSchedule":
        with reading("weight schedule JSON"):
            dim, *gammas = data["dim"], *data["gammas"]
            reject_bools_and_strings([dim], "weight schedule JSON")
            kinds = reject_bools_and_strings(gammas, "weight schedule JSON")
            reject_nulls_and_lists(kinds, "weight schedule JSON")
            return cls(dim, tuple(gammas))


def min_product_weight(k, pattern: InvariancePattern, schedule: WeightSchedule):
    """Smallest schedule product over all in-group rearrangements of ``k``.

    With ``c`` nonzero entries inside the group, the minimum places them on
    the group positions with the smallest schedules, so the value is the
    product of the ``c`` smallest in-group factors times the factors of the
    out-of-group support.  Exact for exact schedule entries.
    """
    weigh = _product_weights(pattern, schedule)
    return weigh(np.array([validate_multi_index(k, pattern.dim)]) != 0).item(0)


def _product_weights(pattern: InvariancePattern, schedule: WeightSchedule):
    """``min_product_weight`` as a function of a support array (``key != 0``).

    The in-group factors are formed once per count; every weight keeps the
    scalar multiplication order, in ``float64`` or, to keep exact types, ``object``.
    """
    if schedule.dim != pattern.dim:
        raise DimensionMismatchError("schedule and pattern dimensions differ")
    if len(pattern.groups) > 1:
        raise UnsupportedPatternError("weighted operations support at most one coordinate group")
    group = [i - 1 for i in pattern.groups[0]] if pattern.groups else []
    smallest = sorted((schedule.gammas[i] for i in group), reverse=True)
    dtype = np.float64 if np.asarray(schedule.gammas).dtype == np.float64 else object
    block = np.array([math.prod(smallest[c:]) for c in range(len(group), -1, -1)], dtype=dtype)
    outside = [(i, g) for i, g in enumerate(schedule.gammas) if i not in group]

    def weigh(support):
        values = block[support[:, group].sum(axis=1)]
        for i, g in outside:
            hit = support[:, i]
            values[hit] = values[hit] * g
        return values

    return weigh


@dataclass(frozen=True)
class OrderedWeights:
    """Canonical 0/1 vectors sorted by non-increasing effective weight.

    ``ordering`` is the sorted tuple of representatives (ties broken
    lexicographically) and ``weights[n]`` the effective weight of
    ``ordering[n]``.
    """

    ordering: tuple[MultiIndex, ...]
    weights: tuple


def _ranked_weights(pattern: InvariancePattern, schedule: WeightSchedule):
    """The canonical 0/1 vectors (``uint8`` rows) and their weights, by descending weight."""
    vectors, _ = canonical_binary_vectors(pattern)
    mus = _product_weights(pattern, schedule)(vectors != 0)
    ranked = (len(mus) - 1 - np.argsort(mus[::-1], kind="stable"))[::-1]  # as sorted(reverse=True)
    return vectors[ranked], mus[ranked]


def order_weights(pattern: InvariancePattern, schedule: WeightSchedule) -> OrderedWeights:
    """Sort the canonical 0/1 vectors by descending effective weight."""
    vectors, mus = _ranked_weights(pattern, schedule)
    return OrderedWeights(tuple(map(tuple, vectors.tolist())), tuple(mus.tolist()))


def error_lower_bound(n_nodes, pattern: InvariancePattern, schedule: WeightSchedule):
    """Guaranteed worst-case error of any rule with ``n_nodes`` nodes.

    Equals the ``(n_nodes+1)``-th largest effective weight; only defined
    below the critical node count (beyond it no such guarantee exists).
    """
    n_nodes = require_integral(n_nodes, "node count")
    if n_nodes < 0:
        raise ValueError("node count must be >= 0")
    threshold = critical_node_count(pattern)
    if n_nodes >= threshold:
        raise RefusalError(n_nodes, threshold)
    return _ranked_weights(pattern, schedule)[1].item(n_nodes)


def construct_weighted_certificate(
    rule: CubatureRule,
    pattern: InvariancePattern,
    alpha,
    schedule: WeightSchedule,
) -> FoolingCertificate:
    """Fooling certificate for the weighted norm.

    Runs the unweighted construction with the weight-ordered mode
    enumeration, then scales the polynomial by the square root of the
    product of the ``(n+1)``-th ordered weight and the pivot's weight.  The
    scaled coefficients are verified against the weighted unit ball
    coefficient-by-coefficient, and the integral is checked against the
    guaranteed floor.  A failure of the product inequality
    ``scale**2 <= weight(k)`` on the support is a hard error: it cannot
    happen for a correct weight implementation.  The result is the
    verified unweighted certificate with the rescaled fields replaced,
    checked again by the unweighted constructor's ``_verified``.
    """
    ordering, ordered = _ranked_weights(pattern, schedule)
    base = construct_certificate(rule, pattern, alpha, mode_order=ordering[: rule.n_nodes + 1])
    floor = float(ordered[rule.n_nodes])
    scale = math.sqrt(floor * float(ordered[base.solution.pivot_index]))
    poly = scale * base.polynomial

    residuals = dict(base.residuals)
    moduli = np.abs(poly.coeffs)
    mus = _product_weights(pattern, schedule)(poly.keys != 0).astype(np.float64)
    bounds = np.sqrt(mus)
    stray = moduli[(bounds == 0.0) & (moduli > 1e-12)]
    if stray.size:
        residuals["weighted_ball_excess"] = float(stray[0])
        raise CertificateError("coefficient on a zero-weight frequency", residuals)
    worst_product = float(np.max(scale * scale - mus, initial=0.0))
    if worst_product > 1e-12:
        residuals["weight_product_excess"] = worst_product
        raise CertificateError(
            "weight product inequality violated on the support", residuals
        )
    weighted = bounds > 0.0
    worst_ball = float(np.max(np.where(weighted, moduli - bounds, moduli), initial=0.0))
    norm_value = float(np.max(moduli[weighted] / bounds[weighted], initial=0.0))

    integral_value = poly.integral()
    residuals.update(
        integral_floor_deficit=max(0.0, floor - integral_value.real),
        weighted_ball_excess=max(0.0, worst_ball),
        weighted_norm_excess=max(0.0, norm_value - 1.0),
    )
    limits = {"integral_floor_deficit": DEFAULT_CHECK_TOL, "weighted_ball_excess": DEFAULT_CHECK_TOL}
    rule_value = _verified(rule, poly, residuals, limits, "weighted certificate verification failed")
    return replace(
        base, polynomial=poly, rule_value=rule_value, integral_value=integral_value, norm_value=norm_value,
        residuals=residuals, weight_scale=scale, weight_floor=floor, gammas=schedule.gammas,
    )


@dataclass(frozen=True)
class SupermultiplicativityReport:
    """Exhaustive verification of the weight product inequality."""

    passed: bool
    n_checked: int
    counterexample: tuple | None


def check_weight_supermultiplicativity(
    pattern: InvariancePattern, schedule: WeightSchedule
) -> SupermultiplicativityReport:
    """Verify ``w(k1) * w(k2) <= w(v - u)`` over all orbit element pairs.

    Runs over every ordered pair of canonical 0/1 vectors and every pair of
    orbit elements ``(v, u)``, the distinct images under the group, so the
    checked set of difference vectors is exhaustive.  Pairs are checked in
    ``(k1, k2, v, u)`` order and the first failure is returned, not raised,
    with the count checked so far: it would indicate a defect in
    ``min_product_weight``.
    """
    if pattern.dim > SUPERMULTIPLICATIVITY_MAX_DIM:
        raise DimensionMismatchError(
            f"pattern dimension {pattern.dim} exceeds max_dim {SUPERMULTIPLICATIVITY_MAX_DIM}"
        )
    weigh = _product_weights(pattern, schedule)
    vectors, _ = canonical_binary_vectors(pattern)
    members, owner = orbit_members(pattern, vectors)
    v, u = np.divmod(np.arange(len(owner) ** 2), len(owner))
    v, u = np.divmod(np.lexsort((owner[u], owner[v])), len(owner))  # stable: v, u stay ordered
    k1, k2, diffs = owner[v], owner[u], members[v] - members[u]
    mus = weigh(vectors != 0)
    lhs, rhs = mus[k1] * mus[k2], weigh(diffs != 0)
    failed = np.flatnonzero(lhs > rhs + 1e-12)
    if failed.size:
        i = failed[0]
        found = map(tuple, np.stack([vectors[k1[i]], vectors[k2[i]], diffs[i]]).tolist())
        return SupermultiplicativityReport(False, int(i) + 1, (*found, lhs.item(i), rhs.item(i)))
    return SupermultiplicativityReport(True, len(lhs), None)


@dataclass(frozen=True)
class WeightPowerSums:
    """Brute-force and closed-form power sums of the effective weights.

    The closed form ``(group_size + 1) * prod(1 + g**exponent)`` over the
    out-of-group schedules requires every in-group schedule to equal 1;
    ``closed_form_applicable`` records whether that held.
    """

    brute: float
    closed: float
    closed_form_applicable: bool


def weight_power_sum(
    pattern: InvariancePattern,
    schedule: WeightSchedule,
    exponent,
) -> WeightPowerSums:
    """Sum of ``weight**exponent`` over the canonical 0/1 vectors.

    ``brute`` always sums the enumeration directly.  ``closed`` evaluates
    the factorized form, which is only a valid identity when the in-group
    schedules are all 1 (it is still returned, with the applicability flag
    lowered, so mismatches are visible).
    """
    return _power_sums(pattern, schedule, exponent, *_weight_classes(_ranked_weights(pattern, schedule)[1]))


def _weight_classes(mus):
    """The ranked weights ``mus`` as ``float64`` ``(distinct, index)``: one class per run of equal bit patterns."""
    weights = mus.astype(np.float64)
    bits = weights.view(np.uint64)
    first = np.append(True, bits[1:] != bits[:-1])
    return weights[first], np.cumsum(first) - 1


def _power_sums(pattern, schedule, exponent, distinct, index) -> WeightPowerSums:
    """``weight_power_sum`` from the weights ``distinct[index]`` in any order (``fsum`` is correctly rounded)."""
    exponent = require_positive(exponent, "exponent")
    powers = np.array([w ** exponent for w in distinct.tolist()])
    brute = math.fsum(powers[index].tolist())
    group = pattern.groups[0] if pattern.groups else ()
    applicable = all(schedule.gammas[i - 1] == 1 for i in group)
    outside = (g for i, g in enumerate(schedule.gammas, 1) if i not in group)
    closed = math.prod((1.0 + float(g) ** exponent for g in outside), start=float(len(group) + 1))
    return WeightPowerSums(brute=brute, closed=closed, closed_form_applicable=applicable)
