"""``apply_rule`` on the half-integer grid: parity classes against pointwise evaluation."""

from fractions import Fraction

import numpy as np
import pytest

import symquad.cubature as cubature
from symquad import (
    CubatureRule,
    FourierPolynomial,
    InvariancePattern,
    apply_rule,
    evaluate_at_points,
    folded_rectangle_rule,
    random_polynomial,
    rectangle_rule,
    symmetrize,
)
from symquad.fourier import MAX_INDEX_MAGNITUDE


def pointwise(rule, f):
    """The exponential route: every term at every node."""
    if rule.n_nodes == 0:
        return 0j
    return complex(np.dot(rule.weights, evaluate_at_points(f, rule.nodes)))


def assert_agrees(rule, f):
    value, reference = apply_rule(rule, f), pointwise(rule, f)
    coeff_sum = sum(abs(c) for c in f.terms.values())
    assert abs(value - reference) <= 1e-12 * (1.0 + rule.weight_abs_sum()) * coeff_sum


def random_grid_rule(rng, dim, n_nodes):
    """Random 0/1 rows (repeats allowed) at the half-integer points, complex weights."""
    bits = rng.integers(0, 2, size=(n_nodes, dim))
    weights = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
    return CubatureRule(dim, bits * 0.5, weights)


def random_pattern(rng, dim):
    """One block of at most 6 coordinates, so symmetrized supports stay small."""
    size = int(rng.integers(1, min(dim, 6) + 1))
    return InvariancePattern.single(dim, sorted(rng.choice(dim, size=size, replace=False) + 1))


@pytest.fixture
def pointwise_calls(monkeypatch):
    """Count the calls of ``apply_rule`` into the exponential route."""
    calls = []

    def spy(f, points):
        calls.append(len(points))
        return evaluate_at_points(f, points)

    monkeypatch.setattr(cubature, "evaluate_at_points", spy)
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_folded_rules_agree_with_pointwise(seed, pointwise_calls):
    rng = np.random.default_rng([seed, 1])
    dim = int(rng.integers(1, 10))
    pattern = random_pattern(rng, dim)
    f = symmetrize(random_polynomial(dim, 12, rng, max_magnitude=3), pattern)
    assert_agrees(folded_rectangle_rule(pattern), f)
    assert_agrees(rectangle_rule(dim), random_polynomial(dim, 30, rng, max_magnitude=4))
    assert pointwise_calls == []


@pytest.mark.parametrize("seed", range(8))
def test_random_grid_subsets_with_complex_weights_agree(seed, pointwise_calls):
    rng = np.random.default_rng([seed, 2])
    dim = int(rng.integers(1, 12))
    rule = random_grid_rule(rng, dim, int(rng.integers(1, 80)))
    assert_agrees(rule, random_polynomial(dim, int(rng.integers(1, 60)), rng, max_magnitude=5))
    assert pointwise_calls == []


def test_empty_polynomial_gives_zero():
    assert apply_rule(rectangle_rule(3), FourierPolynomial(3)) == 0j
    assert apply_rule(random_grid_rule(np.random.default_rng(0), 3, 5), FourierPolynomial(3)) == 0j


def test_one_dimension():
    f = FourierPolynomial(1, {(-3,): 1 + 2j, (0,): 0.5, (2,): -1j, (5,): 0.25})
    assert_agrees(rectangle_rule(1), f)
    assert apply_rule(rectangle_rule(1), f) == 0.5 - 1j
    assert_agrees(CubatureRule(1, [[0.5]], [2 - 1j]), f)


def test_forty_dimensions():
    rng = np.random.default_rng(40)
    rule = random_grid_rule(rng, 40, 30)
    assert_agrees(rule, random_polynomial(40, 50, rng, max_magnitude=2))
    assert_agrees(folded_rectangle_rule(InvariancePattern.full(40)), symmetrize(
        FourierPolynomial(40, {(1, 1) + (0,) * 38: 1.0, (2,) + (0,) * 39: 0.5j}),
        InvariancePattern.full(40),
    ))


def test_more_node_class_pairs_than_one_chunk_holds(pointwise_calls):
    rng = np.random.default_rng(12)
    f = random_polynomial(12, 200, rng, max_magnitude=3)
    classes = np.unique(f.keys & 1, axis=0)
    assert 4096 * len(classes) > 1 << 18  # the nodes go through in several chunks
    assert_agrees(rectangle_rule(12), f)
    assert_agrees(random_grid_rule(rng, 12, 5000), f)
    assert pointwise_calls == []


def test_frequencies_at_the_magnitude_cap():
    big = MAX_INDEX_MAGNITUDE
    f = FourierPolynomial(3, {(big, 0, 0): 1.0, (-big, big, 1): 2j, (big - 1, -big, 0): -0.5})
    rule = random_grid_rule(np.random.default_rng(31), 3, 8)
    assert_agrees(rule, f)
    # (2^31 - 1) is odd and 2^31 - 2 even: on the full grid only the even mode survives.
    assert apply_rule(rectangle_rule(3), FourierPolynomial(3, {(big - 1, 0, 0): 1.0, (big, 0, 0): 1.0})) == 1.0


def test_a_node_off_the_grid_takes_the_pointwise_route(pointwise_calls):
    rng = np.random.default_rng(3)
    nodes = rng.integers(0, 2, size=(6, 4)) * 0.5
    nodes[4, 2] = 0.3
    rule = CubatureRule(4, nodes, rng.standard_normal(6))
    f = random_polynomial(4, 10, rng)
    assert apply_rule(rule, f) == pointwise(rule, f)
    assert pointwise_calls == [6]


@pytest.mark.parametrize("seed", range(20))
def test_node_order_does_not_change_the_value(seed):
    rng = np.random.default_rng([seed, 3])
    dim = int(rng.integers(4, 13))
    pattern = random_pattern(rng, dim)
    f = symmetrize(random_polynomial(dim, 15, rng, max_magnitude=1), pattern)
    rule = folded_rectangle_rule(pattern)
    order = rng.permutation(rule.n_nodes)
    shuffled = CubatureRule(dim, rule.nodes[order], rule.weights[order])
    assert apply_rule(shuffled, f) == apply_rule(rule, f)


@pytest.mark.parametrize("seed", range(6))
def test_dyadic_rules_round_only_the_products(seed):
    """Against the exact rule value, in ``Fraction``: one rounding per term and one at the end."""
    rng = np.random.default_rng([seed, 4])
    dim = int(rng.integers(2, 8))
    pattern = random_pattern(rng, dim)
    f = symmetrize(random_polynomial(dim, 10, rng, max_magnitude=3), pattern)
    rule = folded_rectangle_rule(pattern)
    signs = [[(-1) ** (int(np.dot(k, b)) % 2) for k in f.terms]
             for b in (2 * rule.nodes).astype(int).tolist()]
    w_hat = [sum(Fraction(w.real) * s[j] for w, s in zip(rule.weights, signs)) for j in range(len(f))]
    exact_re = sum(Fraction(c.real) * w for c, w in zip(f.terms.values(), w_hat))
    exact_im = sum(Fraction(c.imag) * w for c, w in zip(f.terms.values(), w_hat))
    scale = sum(abs(c) * abs(float(w)) for c, w in zip(f.terms.values(), w_hat))
    value = apply_rule(rule, f)
    assert abs(Fraction(value.real) - exact_re) <= 2.0**-53 * (scale + abs(value.real))
    assert abs(Fraction(value.imag) - exact_im) <= 2.0**-53 * (scale + abs(value.imag))
