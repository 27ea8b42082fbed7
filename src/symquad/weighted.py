"""Product-weighted coefficient norms and the weighted lower bound.

A weight schedule attaches a non-increasing sequence ``1 >= g_1 >= ... >=
g_d >= 0`` to the coordinates; the weight of a coefficient is the product
of the ``g_m`` over its support, and the norm divides each weighted
coefficient modulus by the square root of that product.  When some
coordinates are interchangeable, the support of an invariant function can
be rearranged within each block, so the effective weight of a frequency
vector is the minimum over all rearrangements: the product of the block's
smallest schedules.  Everything here is plain Python arithmetic so exact
types (fractions) pass through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubature import CubatureRule, apply_rule
from .errors import (
    CertificateError,
    DimensionMismatchError,
    RefusalError,
    UnsupportedPatternError,
)
from .fooling import DEFAULT_CHECK_TOL, FoolingCertificate, construct_certificate
from .fourier import MultiIndex, validate_multi_index
from .symmetry import (
    DEFAULT_ENUMERATION_CAP,
    InvariancePattern,
    canonical_binary_vectors,
    critical_node_count,
    orbit,
)


@dataclass(frozen=True)
class WeightSchedule:
    """Per-coordinate importance factors, non-increasing in ``[0, 1]``."""

    dim: int
    gammas: tuple

    def __init__(self, dim, gammas):
        dim = int(dim)
        gammas = tuple(gammas)
        if len(gammas) != dim:
            raise DimensionMismatchError(f"expected {dim} weights, got {len(gammas)}")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
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
        try:
            return cls(int(data["dim"]), tuple(data["gammas"]))
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed weight schedule JSON: {exc!r}") from exc


def min_product_weight(k, pattern: InvariancePattern, schedule: WeightSchedule):
    """Smallest schedule product over all in-group rearrangements of ``k``.

    With ``c`` nonzero entries inside the group, the minimum places them on
    the group positions with the smallest schedules, so the value is the
    product of the ``c`` smallest in-group factors times the factors of the
    out-of-group support.  Exact for exact schedule entries.
    """
    weigh = _product_weights(pattern, schedule)
    key = validate_multi_index(k, pattern.dim)
    return weigh(np.array([key]) != 0)[0]


def _product_weights(pattern: InvariancePattern, schedule: WeightSchedule):
    """``min_product_weight`` as a function of a support array (``key != 0``).

    The in-group factors are formed once per count; every weight keeps the
    scalar multiplication order, and the object array keeps exact types.
    """
    if schedule.dim != pattern.dim:
        raise DimensionMismatchError("schedule and pattern dimensions differ")
    if len(pattern.groups) > 1:
        raise UnsupportedPatternError("weighted operations support at most one coordinate group")
    group = [i - 1 for i in pattern.groups[0]] if pattern.groups else []
    smallest = sorted((schedule.gammas[i] for i in group), reverse=True)
    block = np.array([math.prod(smallest[c:]) for c in range(len(group), -1, -1)], dtype=object)
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


def order_weights(
    pattern: InvariancePattern,
    schedule: WeightSchedule,
    cap=DEFAULT_ENUMERATION_CAP,
) -> OrderedWeights:
    """Sort the canonical 0/1 vectors by descending effective weight."""
    weigh = _product_weights(pattern, schedule)
    vectors, _ = canonical_binary_vectors(pattern, cap=cap)
    mus = weigh(vectors != 0).tolist()
    ranked = sorted(range(len(mus)), key=mus.__getitem__, reverse=True)  # ties stay in order
    reps = vectors.tolist()
    return OrderedWeights(tuple(tuple(reps[n]) for n in ranked), tuple(mus[n] for n in ranked))


def error_lower_bound(n_nodes, pattern: InvariancePattern, schedule: WeightSchedule):
    """Guaranteed worst-case error of any rule with ``n_nodes`` nodes.

    Equals the ``(n_nodes+1)``-th largest effective weight; only defined
    below the critical node count (beyond it no such guarantee exists).
    """
    n_nodes = int(n_nodes)
    if n_nodes < 0:
        raise ValueError("node count must be >= 0")
    threshold = critical_node_count(pattern)
    if n_nodes >= threshold:
        raise RefusalError(n_nodes, threshold)
    return order_weights(pattern, schedule).weights[n_nodes]


def construct_weighted_certificate(
    rule: CubatureRule,
    pattern: InvariancePattern,
    alpha,
    schedule: WeightSchedule,
    *,
    check_tol=DEFAULT_CHECK_TOL,
) -> FoolingCertificate:
    """Fooling certificate for the weighted norm.

    Runs the unweighted construction with the weight-ordered mode
    enumeration, then scales the polynomial by the square root of the
    product of the ``(n+1)``-th ordered weight and the pivot's weight.  The
    scaled coefficients are verified against the weighted unit ball
    coefficient-by-coefficient, and the integral is checked against the
    guaranteed floor.  A failure of the product inequality
    ``scale**2 <= weight(k)`` on the support is a hard error: it cannot
    happen for a correct weight implementation.
    """
    if schedule.dim != rule.dim:
        raise DimensionMismatchError("schedule and rule dimensions differ")
    weigh = _product_weights(pattern, schedule)
    n_nodes = rule.n_nodes
    ordered = order_weights(pattern, schedule)
    threshold = len(ordered.ordering)
    if n_nodes >= threshold:
        raise RefusalError(n_nodes, threshold)

    prefix = ordered.ordering[: n_nodes + 1]
    base = construct_certificate(
        rule, pattern, alpha, mode_order=prefix, check_tol=check_tol
    )
    floor = float(ordered.weights[n_nodes])
    pivot_weight = float(ordered.weights[base.solution.pivot_index])
    scale = math.sqrt(floor * pivot_weight)
    poly = scale * base.polynomial

    residuals = dict(base.residuals)
    terms = poly.terms
    support = np.array(list(terms), dtype=np.int64).reshape(len(terms), rule.dim) != 0
    moduli = np.abs(np.array(list(terms.values()), dtype=np.complex128))
    mus = weigh(support).astype(np.float64)
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

    rule_value = apply_rule(rule, poly)
    integral_value = poly.integral()
    residuals.update(
        {
            "rule_value": abs(rule_value),
            "integral_floor_deficit": max(0.0, floor - integral_value.real),
            "weighted_ball_excess": max(0.0, worst_ball),
            "weighted_norm_excess": max(0.0, norm_value - 1.0),
        }
    )
    rule_tol = check_tol * (1.0 + rule.weight_abs_sum())
    if (
        residuals["rule_value"] > rule_tol
        or residuals["integral_floor_deficit"] > check_tol
        or residuals["weighted_ball_excess"] > check_tol
    ):
        raise CertificateError("weighted certificate verification failed", residuals)

    return FoolingCertificate(
        pattern=pattern,
        alpha=base.alpha,
        polynomial=poly,
        mode_order=base.mode_order,
        solution=base.solution,
        rule_value=rule_value,
        integral_value=integral_value,
        norm_value=norm_value,
        residuals=residuals,
        weight_scale=scale,
        weight_floor=floor,
        gammas=schedule.gammas,
    )


@dataclass(frozen=True)
class SupermultiplicativityReport:
    """Exhaustive verification of the weight product inequality."""

    passed: bool
    n_checked: int
    counterexample: tuple | None


def check_weight_supermultiplicativity(
    pattern: InvariancePattern, schedule: WeightSchedule, max_dim=6
) -> SupermultiplicativityReport:
    """Verify ``w(k1) * w(k2) <= w(v - u)`` over all orbit element pairs.

    Runs over every ordered pair of canonical 0/1 vectors and every pair of
    orbit elements ``(v, u)``, the distinct images under the group, so the
    checked set of difference vectors is exhaustive.  A counterexample
    would indicate a defect in ``min_product_weight`` and is returned
    rather than raised.
    """
    if max_dim > 6:
        raise ValueError("exhaustive check limited to max_dim <= 6")
    if pattern.dim > max_dim:
        raise DimensionMismatchError(
            f"pattern dimension {pattern.dim} exceeds max_dim {max_dim}"
        )
    weigh = _product_weights(pattern, schedule)
    vectors, _ = canonical_binary_vectors(pattern)
    reps = list(map(tuple, vectors.tolist()))
    mus = dict(zip(reps, weigh(vectors != 0).tolist()))
    orbits = {rep: np.array(list(orbit(rep, pattern))) for rep in reps}
    checked = 0
    for k1 in reps:
        for k2 in reps:
            lhs = mus[k1] * mus[k2]
            diffs = (orbits[k1][:, None, :] - orbits[k2][None, :, :]).reshape(-1, pattern.dim)
            for diff, rhs in zip(diffs.tolist(), weigh(diffs != 0).tolist()):
                checked += 1
                if lhs > rhs + 1e-12:
                    return SupermultiplicativityReport(
                        False, checked, (k1, k2, tuple(diff), lhs, rhs)
                    )
    return SupermultiplicativityReport(True, checked, None)


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
    cap=DEFAULT_ENUMERATION_CAP,
) -> WeightPowerSums:
    """Sum of ``weight**exponent`` over the canonical 0/1 vectors.

    ``brute`` always sums the enumeration directly.  ``closed`` evaluates
    the factorized form, which is only a valid identity when the in-group
    schedules are all 1 (it is still returned, with the applicability flag
    lowered, so mismatches are visible).
    """
    exponent = float(exponent)
    if not exponent > 0:
        raise ValueError("exponent must be positive")
    weigh = _product_weights(pattern, schedule)
    group = pattern.groups[0] if pattern.groups else ()
    vectors, _ = canonical_binary_vectors(pattern, cap=cap)
    brute = math.fsum(float(mu) ** exponent for mu in weigh(vectors != 0))
    in_group = set(group)
    applicable = all(schedule.gammas[i - 1] == 1 for i in group)
    closed = float(len(group) + 1)
    for i in range(1, pattern.dim + 1):
        if i not in in_group:
            closed *= 1.0 + float(schedule.gammas[i - 1]) ** exponent
    return WeightPowerSums(brute=brute, closed=closed, closed_form_applicable=applicable)
