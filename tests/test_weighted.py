"""Effective weights, the weighted lower bound, and the power-sum identity."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from symquad import (
    CapExceededError,
    CubatureRule,
    InvariancePattern,
    RefusalError,
    UnsupportedPatternError,
    WeightSchedule,
    canonicalize,
    check_weight_supermultiplicativity,
    construct_certificate,
    construct_weighted_certificate,
    critical_node_count,
    error_lower_bound,
    min_product_weight,
    order_weights,
    weight_power_sum,
)
from symquad import weighted
from symquad.symmetry import binary_orbit_representatives, canonical_binary_vectors, orbit
from symquad.weighted import SupermultiplicativityReport


def harmonic_schedule(dim):
    """Exact 1, 1/2, 1/3, ... schedule."""
    return WeightSchedule(dim, tuple(Fraction(1, m) for m in range(1, dim + 1)))


def random_schedule(rng, dim, unit_in_group=0):
    tail = sorted((rng.random() for _ in range(dim - unit_in_group)), reverse=True)
    return WeightSchedule(dim, (1.0,) * unit_in_group + tuple(tail))


def brute_min_weight(k, pattern, schedule):
    """Minimum of the schedule product over all in-group rearrangements."""
    group = pattern.groups[0] if pattern.groups else ()
    positions = [i - 1 for i in group]
    values = [k[i] for i in positions]
    best = None
    for arrangement in set(itertools.permutations(values)):
        key = list(k)
        for pos, v in zip(positions, arrangement):
            key[pos] = v
        prod = 1
        for i, e in enumerate(key):
            if e != 0:
                prod = prod * schedule.gammas[i]
        best = prod if best is None or prod < best else best
    return best


# ---------------------------------------------------------------------------
# schedules and effective weights


def test_schedule_validation():
    with pytest.raises(ValueError):
        WeightSchedule(2, (0.5, 0.8))  # increasing
    with pytest.raises(ValueError):
        WeightSchedule(2, (1.2, 0.8))  # above 1
    with pytest.raises(ValueError):
        WeightSchedule(2, (0.5, -0.1))  # negative
    with pytest.raises(Exception):
        WeightSchedule(3, (1.0, 0.5))  # length mismatch
    WeightSchedule(3, (1.0, 1.0, 0.0))  # zeros allowed


def test_schedule_json_round_trip():
    schedule = WeightSchedule(4, (1.0, 0.8, 0.5, 0.0))
    data = json.loads(json.dumps(schedule.to_json_dict()))
    assert data == {"dim": 4, "gammas": [1.0, 0.8, 0.5, 0.0]}
    assert WeightSchedule.from_json_dict(data) == schedule
    exact = harmonic_schedule(3)  # Fraction weights are written as floats
    assert WeightSchedule.from_json_dict(exact.to_json_dict()).gammas == tuple(map(float, exact.gammas))


def test_weight_of_zero_vector_is_one():
    p = InvariancePattern.single(4, (1, 2))
    s = random_schedule(np.random.default_rng(0), 4)
    assert min_product_weight((0, 0, 0, 0), p, s) == 1


def test_weight_harmonic_two_ones():
    for d in (3, 5, 8):
        p = InvariancePattern.full(d)
        s = harmonic_schedule(d)
        k = (0,) * (d - 2) + (1, 1)
        assert min_product_weight(k, p, s) == Fraction(1, d * (d - 1))


def test_weight_hand_example_with_brute_force():
    p = InvariancePattern.single(4, (1, 2))
    s = WeightSchedule(4, (1.0, 0.8, 0.5, 0.4))
    k = (1, 0, 1, 0)
    assert min_product_weight(k, p, s) == pytest.approx(0.8 * 0.5, rel=1e-15)
    assert min_product_weight(k, p, s) == pytest.approx(brute_min_weight(k, p, s), rel=1e-15)


def test_weight_matches_brute_force_exhaustively():
    rng = np.random.default_rng(1)
    for dim in range(2, 7):
        group = tuple(range(1, rng.integers(1, dim + 1) + 1))
        p = InvariancePattern.single(dim, group)
        s = random_schedule(rng, dim)
        for k in itertools.product((-1, 0, 1), repeat=dim):
            got = min_product_weight(k, p, s)
            want = brute_min_weight(k, p, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert 0.0 <= got <= 1.0
            assert min_product_weight(canonicalize(k, p), p, s) == pytest.approx(got, rel=1e-12)


def test_weight_rejects_multi_group():
    p = InvariancePattern(4, [(1, 2), (3, 4)])
    s = random_schedule(np.random.default_rng(2), 4)
    with pytest.raises(UnsupportedPatternError):
        min_product_weight((1, 0, 0, 0), p, s)


# ---------------------------------------------------------------------------
# ordering and the lower bound


def test_order_weights_harmonic_sequence():
    for d in range(1, 11):
        p = InvariancePattern.full(d)
        ordered = order_weights(p, harmonic_schedule(d))
        expected = [Fraction(1)]
        for n in range(1, d + 1):
            expected.append(expected[-1] / (d - n + 1))
        assert list(ordered.weights) == expected


def test_order_weights_unweighted_degeneration():
    p = InvariancePattern.single(4, (1, 2, 3))
    s = WeightSchedule(4, (1, 1, 1, 1))
    ordered = order_weights(p, s)
    assert all(w == 1 for w in ordered.weights)
    assert list(ordered.ordering) == list(binary_orbit_representatives(p))


def test_order_weights_sorted_and_multiset_preserved():
    rng = np.random.default_rng(3)
    p = InvariancePattern.single(5, (1, 2, 3))
    s = random_schedule(rng, 5)
    ordered = order_weights(p, s)
    values = list(ordered.weights)
    assert all(b <= a for a, b in zip(values, values[1:]))
    raw = sorted(
        float(min_product_weight(k, p, s)) for k in binary_orbit_representatives(p)
    )
    assert raw == sorted(float(v) for v in values)
    assert set(ordered.ordering) == set(binary_orbit_representatives(p))


def test_error_lower_bound_examples():
    for d in (3, 6, 10):
        p = InvariancePattern.full(d)
        s = harmonic_schedule(d)
        assert error_lower_bound(0, p, s) == 1
        assert error_lower_bound(1, p, s) == Fraction(1, d)
        assert error_lower_bound(d, p, s) == Fraction(1, math.factorial(d))
        values = [error_lower_bound(n, p, s) for n in range(d + 1)]
        assert all(b <= a for a, b in zip(values, values[1:]))
    with pytest.raises(RefusalError):
        error_lower_bound(4, InvariancePattern.full(3), harmonic_schedule(3))


# ---------------------------------------------------------------------------
# weighted certificate


def test_weighted_certificate_unit_schedule_matches_unweighted():
    rng = np.random.default_rng(4)
    p = InvariancePattern.single(4, (1, 2, 3))
    s = WeightSchedule(4, (1, 1, 1, 1))
    nodes = rng.random((5, 4))
    weights = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rule = CubatureRule(4, nodes, weights)
    plain = construct_certificate(rule, p, 2.0)
    weighted = construct_weighted_certificate(rule, p, 2.0, s)
    assert weighted.weight_scale == pytest.approx(1.0, abs=1e-15)
    assert weighted.mode_order == plain.mode_order
    keys = set(plain.polynomial.support()) | set(weighted.polynomial.support())
    for k in keys:
        assert abs(plain.polynomial.coefficient(k) - weighted.polynomial.coefficient(k)) <= 1e-12


def test_weighted_certificate_harmonic_floor():
    rng = np.random.default_rng(5)
    d = 3
    p = InvariancePattern.full(d)
    s = WeightSchedule(d, tuple(1.0 / m for m in range(1, d + 1)))
    rule = CubatureRule(d, rng.random((2, d)), rng.standard_normal(2) + 1j * rng.standard_normal(2))
    cert = construct_weighted_certificate(rule, p, 2.0, s)
    assert cert.weight_floor == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert cert.integral_value.real >= 1.0 / 6.0 - 1e-9
    assert abs(cert.rule_value) <= 1e-9 * (1 + rule.weight_abs_sum())


def test_weighted_certificate_random_schedule_checks():
    rng = np.random.default_rng(6)
    p = InvariancePattern.single(4, (1, 2, 3))
    s = random_schedule(rng, 4)
    rule = CubatureRule(4, rng.random((5, 4)), rng.standard_normal(5) + 1j * rng.standard_normal(5))
    cert = construct_weighted_certificate(rule, p, 2.0, s)
    for k, c in cert.polynomial.terms.items():
        mu = min_product_weight(k, p, s)
        assert abs(c) <= math.sqrt(float(mu)) + 1e-9
    assert cert.norm_value <= 1.0 + 1e-9
    assert cert.integral_value.real >= float(cert.weight_floor) - 1e-9


def test_weighted_certificate_with_zero_weights():
    rng = np.random.default_rng(7)
    p = InvariancePattern.single(3, (1, 2))
    s = WeightSchedule(3, (1.0, 0.5, 0.0))
    rule = CubatureRule(3, rng.random((4, 3)), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    cert = construct_weighted_certificate(rule, p, 2.0, s)
    # floor may vanish; the certificate must still verify
    assert cert.weight_floor >= 0.0
    assert abs(cert.rule_value) <= 1e-9 * (1 + rule.weight_abs_sum())


def test_weighted_certificate_refusal():
    p = InvariancePattern.full(3)
    s = harmonic_schedule(3)
    rng = np.random.default_rng(8)
    rule = CubatureRule(3, rng.random((4, 3)), np.ones(4))
    with pytest.raises(RefusalError):
        construct_weighted_certificate(rule, p, 2.0, s)


# ---------------------------------------------------------------------------
# the product inequality


def test_supermultiplicativity_small_cases():
    p = InvariancePattern.full(2)
    report = check_weight_supermultiplicativity(p, WeightSchedule(2, (1.0, 0.5)))
    assert report.passed and report.counterexample is None
    report = check_weight_supermultiplicativity(p, WeightSchedule(2, (1.0, 1.0)))
    assert report.passed


def test_supermultiplicativity_random_schedules():
    rng = np.random.default_rng(9)
    p = InvariancePattern.single(4, (1, 2))
    for _ in range(5):
        report = check_weight_supermultiplicativity(p, random_schedule(rng, 4))
        assert report.passed
        assert report.n_checked > 0


def test_supermultiplicativity_guard():
    p = InvariancePattern.full(7)
    with pytest.raises(Exception):
        check_weight_supermultiplicativity(p, WeightSchedule(7, (1.0,) * 7))


def test_supermultiplicativity_cap_is_a_cap_error():
    with pytest.raises(CapExceededError, match=r"^supermultiplicativity check limited to dimension <= 6$"):
        check_weight_supermultiplicativity(InvariancePattern.full(7), WeightSchedule(7, (1.0,) * 7))


# ---------------------------------------------------------------------------
# power sums


def test_power_sum_frozen_example():
    p = InvariancePattern.single(3, (1,))
    s = WeightSchedule(3, (1.0, 0.5, 0.5))
    sums = weight_power_sum(p, s, 2.0)
    assert sums.closed == pytest.approx(3.125, rel=1e-15)
    assert sums.brute == pytest.approx(sums.closed, rel=1e-12)
    assert sums.closed_form_applicable


def test_power_sum_unit_schedule_counts_representatives():
    p = InvariancePattern.single(5, (1, 2, 3))
    s = WeightSchedule(5, (1.0,) * 5)
    sums = weight_power_sum(p, s, 1.5)
    assert sums.brute == pytest.approx(critical_node_count(p), rel=1e-14)
    assert sums.closed == pytest.approx(critical_node_count(p), rel=1e-14)


def test_power_sum_identity_d4():
    p = InvariancePattern.single(4, (1, 2))
    s = WeightSchedule(4, (1.0, 1.0, 0.9, 0.3))
    sums = weight_power_sum(p, s, 3.0)
    assert sums.brute == pytest.approx(sums.closed, rel=1e-12)
    assert sums.closed_form_applicable


def test_power_sum_reports_inapplicable_closed_form():
    p = InvariancePattern.single(3, (1, 2))
    s = WeightSchedule(3, (1.0, 0.7, 0.5))
    sums = weight_power_sum(p, s, 2.0)
    assert not sums.closed_form_applicable
    assert sums.brute != pytest.approx(sums.closed, rel=1e-6)


@pytest.mark.parametrize("exponent", [0.0, -1.0, float("nan"), float("inf")])
def test_power_sum_rejects_an_exponent_that_is_not_positive_and_finite(exponent):
    p = InvariancePattern.single(4, (1, 2))
    with pytest.raises(ValueError, match="exponent must be positive and finite"):
        weight_power_sum(p, WeightSchedule(4, (1.0, 0.9, 0.5, 0.1)), exponent)


def reference_supermultiplicativity(pattern, schedule):
    """The per-pair loop over ``orbit()`` that the array check replaced."""
    weigh = weighted._product_weights(pattern, schedule)
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


def defective_weights(kind):
    """A broken ``_product_weights``: inflates or shrinks some supports' weights."""
    correct = weighted._product_weights

    def product_weights(pattern, schedule):
        weigh = correct(pattern, schedule)
        if kind == "inflate-last":
            return lambda support: weigh(support) * (1 + support[:, -1].astype(object))
        return lambda support: weigh(support) * np.where(
            support.sum(axis=1) == pattern.dim - 1, Fraction(1, 4), 1
        ).astype(object)

    return product_weights


@pytest.mark.parametrize("kind", [None, "inflate-last", "shrink-wide"])
def test_supermultiplicativity_matches_the_pair_loop(monkeypatch, kind):
    if kind is not None:
        monkeypatch.setattr(weighted, "_product_weights", defective_weights(kind))
    rng = np.random.default_rng(21)
    failures = 0
    for dim in range(1, 7):
        for size in sorted({0, min(2, dim), dim}):
            pattern = InvariancePattern.single(dim, range(1, size + 1))
            for schedule in (random_schedule(rng, dim), harmonic_schedule(dim)):
                report = check_weight_supermultiplicativity(pattern, schedule)
                assert report == reference_supermultiplicativity(pattern, schedule)
                failures += not report.passed
    assert (failures > 0) == (kind is not None)


# ---------------------------------------------------------------------------
# the array weights pass against the scalar path it replaced


def scalar_weight(k, group, gammas):
    """One effective weight in Python arithmetic, in the order of the array pass."""
    smallest = sorted((gammas[i - 1] for i in group), reverse=True)
    weight = math.prod(smallest[len(group) - sum(k[i - 1] for i in group) :])
    for i, g in enumerate(gammas, 1):
        if k[i - 1] and i not in group:
            weight = weight * g
    return weight


def scalar_order_weights(pattern, schedule):
    """Object weights ranked by ``sorted(range, key, reverse=True)``: ties stay lexicographic."""
    group = pattern.groups[0] if pattern.groups else ()
    reps = list(map(tuple, canonical_binary_vectors(pattern)[0].tolist()))
    mus = [scalar_weight(k, group, schedule.gammas) for k in reps]
    ranked = sorted(range(len(mus)), key=mus.__getitem__, reverse=True)
    return [reps[n] for n in ranked], [mus[n] for n in ranked]


def same_value(new, old, exact):
    """Equal bit for bit; an exact schedule also keeps the Python type."""
    if exact:
        return type(new) is type(old) and new == old
    return type(new) is float and repr(new) == repr(float(old))


SCHEDULES = {
    "float": (1.0, 0.9, 0.7, 0.7, 0.31, 0.2, 0.05),
    "fraction": (Fraction(1), Fraction(2, 3), Fraction(2, 3), Fraction(1, 3), Fraction(1, 7), Fraction(1, 10), 0),
    "int-only": (1, 1, 1, 1, 0, 0, 0),
    "mixed-int-float": (1, 1, 0.5, 0.5, 0.25, 0, 0),
    "zeros": (0.5, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0),
    "ties": (1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
}
GROUPS = {"empty": (), "pair": (2, 5), "middle": (3, 4, 5), "full": tuple(range(1, 8))}


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
@pytest.mark.parametrize("gammas", SCHEDULES.values(), ids=SCHEDULES.keys())
def test_weights_pass_matches_the_scalar_path(gammas, group):
    pattern = InvariancePattern(7, [group] if group else [])
    schedule = WeightSchedule(7, gammas)
    exact = np.asarray(gammas).dtype != np.float64
    reps, mus = scalar_order_weights(pattern, schedule)
    ordered = order_weights(pattern, schedule)
    assert isinstance(ordered.ordering, tuple) and all(type(k) is tuple for k in ordered.ordering)
    assert list(ordered.ordering) == reps
    assert all(same_value(new, old, exact) for new, old in zip(ordered.weights, mus, strict=True))
    for n in range(len(mus)):
        assert same_value(error_lower_bound(n, pattern, schedule), mus[n], exact)
    for exponent in (0.5, 1.0, 2.5, 3.0):
        sums = weight_power_sum(pattern, schedule, exponent)
        assert repr(sums.brute) == repr(math.fsum(float(mu) ** exponent for mu in mus))
    if gammas is SCHEDULES["fraction"]:
        assert any(type(w) is Fraction for w in ordered.weights)
