"""Rules, folding, and the worst-case error formula with its lattice oracle."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from symquad import (
    CapExceededError,
    CubatureRule,
    DimensionMismatchError,
    FourierPolynomial,
    InvariancePattern,
    apply_rule,
    folded_rectangle_rule,
    initial_error,
    korobov_norm,
    orbit_stats,
    random_polynomial,
    rectangle_rule,
    rectangle_worst_case_error,
    riemann_zeta,
    symmetrize,
)
import symquad.cubature as cubature
from symquad.cubature import bench
from symquad.korobov import zeta_floor
from symquad.symmetry import binary_orbit_representatives

# Frozen via the analytic zeta values pi^2/6 and pi^4/90.
WCE_D1_A2 = 0.8224670334241132
WCE_D2_A4 = 0.2888843019001428


def mode(dim, k):
    return FourierPolynomial(dim, {tuple(k): 1.0})


# ---------------------------------------------------------------------------
# rule container


def test_rule_validation():
    with pytest.raises(ValueError):
        CubatureRule(2, [[0.0, 1.0]], [1.0])  # node at 1 not allowed
    with pytest.raises(ValueError):
        CubatureRule(2, [[0.0, 0.5]], [1.0, 2.0])  # count mismatch
    zero = CubatureRule(3, [], [])
    assert zero.n_nodes == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 1.0])
def test_rule_refuses_a_node_coordinate_outside_the_unit_interval(bad):
    nodes = np.full((3, 2), 0.5)
    nodes[1, 0] = bad
    with pytest.raises(ValueError, match=r"node coordinates must lie in \[0, 1\)"):
        CubatureRule(2, nodes, np.ones(3))


def test_rule_accepts_minus_zero_node_coordinates():
    rule = CubatureRule(2, [[-0.0, 0.5], [0.0, -0.0]], [0.5, 0.5])
    assert math.copysign(1.0, rule.nodes[0, 0]) == -1.0 and rule.n_nodes == 2


def test_rule_checks_its_nodes_without_full_size_temporaries():
    nodes = rectangle_rule(15).nodes.copy()  # 32768 x 15 float nodes, 3.9 MB
    weights = np.full(len(nodes), 2.0**-15, dtype=np.complex128)
    tracemalloc.start()
    try:
        rule = CubatureRule(15, nodes, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(rule.nodes, nodes) and np.shares_memory(rule.weights, weights)  # no copies either
    assert peak < nodes.nbytes // 16


def test_a_rule_leaves_the_callers_arrays_writable():
    nodes, weights = np.zeros((2, 1)), np.full(2, 0.5, dtype=np.complex128)
    rule = CubatureRule(1, nodes, weights)
    nodes[0, 0], weights[0] = 0.25, 0.75  # shared, not copied: the rule sees both
    assert rule.nodes[0, 0] == 0.25 and rule.weights[0] == 0.75
    for view in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0


def test_rule_json_roundtrip():
    rule = CubatureRule(2, [[0.0, 0.5], [0.25, 0.75]], [0.5 + 1j, -0.5])
    again = CubatureRule.from_json_dict(rule.to_json_dict())
    assert np.array_equal(again.nodes, rule.nodes)
    assert np.array_equal(again.weights, rule.weights)
    with pytest.raises(ValueError):
        CubatureRule.from_json_dict({"dim": 2, "nodes": [[0.0, 0.0]]})


# ---------------------------------------------------------------------------
# application


def test_apply_zero_rule():
    zero = CubatureRule(3, [], [])
    rng = np.random.default_rng(0)
    assert apply_rule(zero, random_polynomial(3, 5, rng)) == 0


def test_apply_rule_refuses_a_polynomial_of_another_dimension():
    with pytest.raises(DimensionMismatchError, match="rule and polynomial dimensions differ"):
        apply_rule(rectangle_rule(2), FourierPolynomial(3, {(0, 0, 0): 1.0}))


def test_apply_rectangle_one_dim_mode():
    rule = rectangle_rule(1)
    assert abs(apply_rule(rule, mode(1, (1,)))) <= 1e-15


def test_apply_rectangle_even_mode_direct_oracle():
    rule = rectangle_rule(2)
    f = mode(2, (2, -2))
    # direct 4-point evaluation
    direct = sum(
        0.25 * cmath.exp(2j * cmath.pi * (2 * a / 2 - 2 * b / 2))
        for a in (0, 1)
        for b in (0, 1)
    )
    value = apply_rule(rule, f)
    assert abs(value - direct) <= 1e-14
    assert value == pytest.approx(1.0, abs=1e-13)


def test_rectangle_rule_shape():
    rule = rectangle_rule(1)
    assert rule.nodes.tolist() == [[0.0], [0.5]]
    assert rule.weights.tolist() == [0.5 + 0j, 0.5 + 0j]
    rule3 = rectangle_rule(3)
    assert rule3.n_nodes == 8
    assert np.sum(rule3.weights).real == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(CapExceededError):
        rectangle_rule(27)


def test_rectangle_reproduces_exactly_the_even_modes():
    rule = rectangle_rule(3)
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = tuple(int(v) for v in rng.integers(-4, 5, size=3))
        value = apply_rule(rule, mode(3, k))
        # per-coordinate product oracle (1 + exp(pi i k_m)) / 2
        want = 1.0
        for km in k:
            want *= (1 + cmath.exp(1j * cmath.pi * km)) / 2
        assert abs(value - want) <= 1e-12
        assert abs(value - (1.0 if all(km % 2 == 0 for km in k) else 0.0)) <= 1e-12


# ---------------------------------------------------------------------------
# folded rule


def test_folded_rule_d2_frozen():
    rule = folded_rectangle_rule(InvariancePattern.full(2))
    assert rule.nodes.tolist() == [[0.0, 0.0], [0.0, 0.5], [0.5, 0.5]]
    assert rule.weights.tolist() == [0.25 + 0j, 0.5 + 0j, 0.25 + 0j]


def test_folded_rule_trivial_pattern_equals_rectangle():
    folded = folded_rectangle_rule(InvariancePattern.trivial(3))
    full = rectangle_rule(3)
    assert sorted(map(tuple, folded.nodes.tolist())) == sorted(map(tuple, full.nodes.tolist()))
    assert np.allclose(folded.weights, full.weights)


def test_folded_weights_exact():
    for pattern in (
        InvariancePattern.full(6),
        InvariancePattern.single(6, (1, 2, 3)),
        InvariancePattern(6, [(1, 2), (3, 4, 5)]),
    ):
        rule = folded_rectangle_rule(pattern)
        assert np.all(rule.weights.real > 0)
        assert np.all(rule.weights.imag == 0)
        assert float(np.sum(rule.weights).real) == 1.0
        exact = sum(
            Fraction(orbit_stats(rep, pattern).orbit_size, 2**pattern.dim)
            for rep in binary_orbit_representatives(pattern)
        )
        assert exact == 1


def test_folded_agrees_with_rectangle_on_invariant_input():
    rng = np.random.default_rng(2)
    p = InvariancePattern.full(10)
    folded = folded_rectangle_rule(p)
    full = rectangle_rule(10)
    assert folded.n_nodes == 11 and full.n_nodes == 1024
    for _ in range(3):
        raw = random_polynomial(10, 6, rng, max_magnitude=1)
        f = symmetrize(raw, p)
        total = sum(abs(c) for c in f.terms.values())
        diff = abs(apply_rule(folded, f) - apply_rule(full, f))
        assert diff <= 1e-10 * (1 + total)


def test_folded_multi_group_agreement():
    rng = np.random.default_rng(12)
    p = InvariancePattern(6, [(1, 2), (3, 4, 5)])
    folded = folded_rectangle_rule(p)
    assert folded.n_nodes == 24
    full = rectangle_rule(6)
    f = symmetrize(random_polynomial(6, 8, rng, max_magnitude=1), p)
    total = sum(abs(c) for c in f.terms.values())
    diff = abs(apply_rule(folded, f) - apply_rule(full, f))
    assert diff <= 1e-10 * (1 + total)


def test_folding_after_symmetrizing_recovers_full_rule():
    # On a non-invariant input, folding the symmetrized function reproduces
    # the full rule applied to the original function.
    rng = np.random.default_rng(3)
    p = InvariancePattern.single(4, (1, 2, 3))
    folded = folded_rectangle_rule(p)
    full = rectangle_rule(4)
    f = random_polynomial(4, 8, rng, max_magnitude=1)
    total = sum(abs(c) for c in f.terms.values())
    lhs = apply_rule(folded, symmetrize(f, p))
    rhs = apply_rule(full, f)
    assert abs(lhs - rhs) <= 1e-10 * (1 + total)


# ---------------------------------------------------------------------------
# worst-case error


def test_wce_one_dim_alpha2():
    report = rectangle_worst_case_error(1, 2.0, 1e-8)
    assert report.closed_form == pytest.approx(WCE_D1_A2, abs=1e-6)
    assert abs(report.closed_form - report.oracle_value) <= report.tail_bound


def test_wce_d2_alpha4():
    report = rectangle_worst_case_error(2, 4.0, 1e-8)
    assert report.closed_form == pytest.approx(WCE_D2_A4, abs=1e-6)


def test_wce_matches_zeta_expression():
    for dim in (1, 2, 5):
        for alpha in (1.5, 3.0):
            report = rectangle_worst_case_error(dim, alpha, 1e-9)
            z = riemann_zeta(alpha, 1e-13)
            direct = (1 + z / 2 ** (alpha - 1)) ** dim - 1
            assert report.closed_form == pytest.approx(direct, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_wce_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        rectangle_worst_case_error(3, 2.0, tol)


def test_wce_high_smoothness_vanishes():
    for dim in range(1, 6):
        report = rectangle_worst_case_error(dim, 50.0, 1e-9)
        assert 0 < report.closed_form < 1e-13


def test_wce_oracle_within_tail_bound_on_grid():
    for dim in range(1, 9):
        for alpha in (1.5, 2.0, 3.0, 6.0):
            report = rectangle_worst_case_error(dim, alpha, 1e-8)
            assert abs(report.closed_form - report.oracle_value) <= report.tail_bound + 1e-9


def test_wce_monotonicity():
    for alpha in (1.5, 2.0, 3.0, 6.0):
        values = [rectangle_worst_case_error(d, alpha, 1e-9).closed_form for d in range(1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))
    for dim in range(1, 9):
        values = [rectangle_worst_case_error(dim, a, 1e-9).closed_form for a in (1.5, 2.0, 3.0, 6.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("dim, alpha", [(2, 1.01), (1, 1.0001), (12, 1.001)])
def test_wce_near_alpha_one_truncates_at_the_cap(dim, alpha):
    # the truncation index target ** (-1/(alpha-1)) would overflow; the oracle stops at 2^20 terms
    report = rectangle_worst_case_error(dim, alpha)
    m = np.arange(1, (1 << 20) + 1, dtype=np.float64)
    assert report.oracle_value == math.expm1(dim * math.log1p(2.0 ** (1.0 - alpha) * float(np.sum(m**-alpha))))
    z = mpmath.zeta(alpha)
    assert report.closed_form == pytest.approx(float((1 + z / mpmath.mpf(2) ** (alpha - 1)) ** dim - 1), rel=1e-9)
    assert 0 < report.closed_form - report.oracle_value <= report.tail_bound


@pytest.mark.parametrize("dims, fractions", [([], [1.0]), ([4], []), ([], [])])
def test_bench_refuses_empty_lists(dims, fractions):
    with pytest.raises(ValueError, match="at least one dimension and one invariant fraction"):
        bench(dims, fractions, repetitions=1)


def test_even_sublattice_factorization_one_dim():
    # raw summation over the nonzero even frequencies vs the factorized form
    alpha, m_cut = 2.5, 2000
    raw = sum(max(1, abs(k)) ** -alpha for k in range(-2 * m_cut, 2 * m_cut + 1, 2) if k != 0)
    factored = 2 ** (1 - alpha) * sum(m ** -alpha for m in range(1, m_cut + 1))
    assert raw == pytest.approx(factored, rel=1e-12)


def test_even_sublattice_factorization_two_dim():
    # truncated box enumeration vs product of one-dimensional factors
    alpha, box = 3.0, 40
    raw = 0.0
    for k1 in range(-box, box + 1, 2):
        for k2 in range(-box, box + 1, 2):
            if (k1, k2) == (0, 0):
                continue
            raw += (max(1, abs(k1)) * max(1, abs(k2))) ** -alpha
    one_dim = 1 + 2 * sum((2 * m) ** -alpha for m in range(1, box // 2 + 1))
    assert raw == pytest.approx(one_dim**2 - 1, rel=1e-3)


def test_initial_error():
    assert initial_error(2.0) == 1.0
    assert initial_error(1.0001) == 1.0
    witness = FourierPolynomial(2, {(0, 0): 1.0})
    assert korobov_norm(witness, 3.0) == 1.0
    assert witness.integral() == 1.0
    zero = CubatureRule(2, [], [])
    assert abs(witness.integral() - apply_rule(zero, witness)) == 1.0
    with pytest.raises(ValueError):
        initial_error(1.0)


@pytest.mark.parametrize("alpha", [1025.0, 1074.0])
def test_wce_for_large_alpha_stays_in_the_float_range(alpha):
    # 2^(alpha-1) overflows here; 2^(1-alpha) is still a (subnormal) float
    report = rectangle_worst_case_error(3, alpha)
    assert 0 < report.closed_form < 1e-300
    assert abs(report.closed_form - report.oracle_value) <= report.tail_bound


@pytest.mark.parametrize(
    "dim, alpha, message",
    [
        (3, 1100.0, "underflows"),
        (2, 1e300, "underflows"),
        (400, 1.01, "exceeds the float range"),
        (2000, 2.0, "exceeds the float range"),
        (100000, 2.0, "exceeds the float range"),
    ],
)
def test_wce_names_a_closed_form_outside_the_float_range(dim, alpha, message):
    with pytest.raises(OverflowError, match=f"the closed form {message}"):
        rectangle_worst_case_error(dim, alpha)


@pytest.mark.parametrize(
    "dim, alpha, tol",
    [
        (1, 1.0000000000011344, 0.003819636570123756),  # near 1e12 the float rounding exceeds the analytic bound
        (1, 1.0000000003715908, 1.0821247627219072e-05),
        (1, 1.0 + 1e-12, 1e-3),
    ],
)
def test_wce_tail_bound_covers_rounding(dim, alpha, tol):
    report = rectangle_worst_case_error(dim, alpha, tol)
    assert report.closed_form > 1e8
    assert abs(report.closed_form - report.oracle_value) <= report.tail_bound


def test_wce_refuses_a_tolerance_below_the_zeta_floor():
    with pytest.raises(ValueError, match="tolerance 1e-300 is below"):
        rectangle_worst_case_error(3, 2.0, 1e-300)
    with pytest.raises(ValueError, match="tolerance 1e-09 is below"):
        rectangle_worst_case_error(1, 1.0 + 1e-12)  # zeta is about 1e12, so 1e-9 is out of reach


def test_wce_asks_zeta_for_at_most_its_floor():
    floor = zeta_floor(2.0)
    report = rectangle_worst_case_error(1, 2.0, 2 * floor)  # reachable, but its zeta share tol / 4 is not
    assert report.closed_form == math.expm1(math.log1p(riemann_zeta(2.0, floor) * 0.5))
    assert abs(report.closed_form - report.oracle_value) <= report.tail_bound


def test_bench_builds_each_rectangle_rule_once_and_refuses_before_building(monkeypatch):
    built = []
    real = cubature.rectangle_rule
    monkeypatch.setattr(cubature, "rectangle_rule", lambda dim: built.append(dim) or real(dim))
    with pytest.raises(CapExceededError) as refused:
        bench([16, 30], [1.0, 0.5], repetitions=1)
    assert built == []
    with pytest.raises(CapExceededError) as direct:
        real(30)
    assert str(refused.value) == str(direct.value)
    rows = bench([4, 6], [1.0, 0.5, 0.25], repetitions=1)
    assert built == [4, 6]
    assert [(row["dim"], row["invariant_count"], row["nodes_full"]) for row in rows] == [
        (4, 4, 16), (4, 2, 16), (4, 1, 16), (6, 6, 64), (6, 3, 64), (6, 2, 64)]


@pytest.mark.parametrize("repetitions", [0, -2, 1.5])
def test_bench_refuses_repetitions_below_one(repetitions):
    with pytest.raises(ValueError, match="repetitions"):
        bench([4], [0.5], repetitions=repetitions)
