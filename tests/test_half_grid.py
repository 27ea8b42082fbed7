"""``apply_rule`` on the half-integer grid: parity classes against pointwise evaluation."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import symquad
import symquad.cubature as cubature
from symquad import (
    CubatureRule,
    FourierPolynomial,
    InvariancePattern,
    apply_rule,
    cli,
    evaluate_at_points,
    folded_rectangle_rule,
    random_polynomial,
    rectangle_rule,
    symmetrize,
)
from symquad.fourier import MAX_INDEX_MAGNITUDE, _distinct_rows


def pointwise(rule, f):
    """The exponential route: every term at every node."""
    if rule.n_nodes == 0:
        return 0j
    return complex(np.dot(rule.weights, evaluate_at_points(f, rule.nodes)))


def assert_agrees(rule, f):
    value, reference = apply_rule(rule, f), pointwise(rule, f)
    coeff_sum = sum(abs(c) for c in f.terms.values())
    assert abs(value - reference) <= 1e-12 * (1.0 + rule.weight_abs_sum()) * coeff_sum


def float_grid_route(rule, f):
    """The half-grid route with a float grid test, row-wise packing and grouped packed bytes; None off the grid.

    The reference for the boolean grid test, the flat packing and the integer class codes, whose sums must be the same.
    """
    bits = rule.nodes * 2.0
    if not np.array_equal(bits, np.floor(bits)):  # nodes in [0, 1): bits are 0 or 1
        return None
    weights = rule.weights
    class_bytes, inverse = _distinct_rows(np.packbits(f.keys & 1, axis=1))
    node_bytes = np.packbits(bits != 0, axis=1)
    w_parts = np.stack([weights.real, weights.imag])
    odd_sums = np.zeros((2, len(class_bytes)))
    chunk = max(1, (1 << 18) // len(class_bytes))
    for lo in range(0, len(node_bytes), chunk):
        odd = node_bytes[lo:lo + chunk, :1] & class_bytes[:, 0]
        for j in range(1, class_bytes.shape[1]):
            odd ^= node_bytes[lo:lo + chunk, j:j + 1] & class_bytes[:, j]
        for shift in (4, 2, 1):
            odd ^= odd >> shift
        odd_sums += np.einsum("kn,nc->kc", w_parts[:, lo:lo + chunk], (odd & 1).astype(np.float64))
    w_hat = w_parts.sum(axis=1)[:, None] - 2.0 * odd_sums
    products = f.coeffs * (w_hat[0] + 1j * w_hat[1])[inverse]
    return complex(math.fsum(products.real.tolist()), math.fsum(products.imag.tolist()))


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


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 16, 17, 64, 65, 130])
@pytest.mark.parametrize("seed", range(3))
def test_the_half_grid_route_is_bit_identical_to_the_float_grid_route(dim, seed, pointwise_calls):
    rng = np.random.default_rng([seed, dim, 5])
    f = random_polynomial(dim, int(rng.integers(1, 120)), rng, max_magnitude=3)
    n_classes = len(np.unique(f.keys & 1, axis=0))
    # more nodes than one chunk holds, drawn from fewer distinct rows so that nodes repeat
    n_nodes = (1 << 18) // n_classes + int(rng.integers(1, 200))
    rows = rng.integers(0, 2, size=(int(rng.integers(1, 300)), dim))
    bits = rows[rng.integers(0, len(rows), size=n_nodes)]
    rule = CubatureRule(dim, bits * 0.5, rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes))
    value = apply_rule(rule, f)
    assert value == float_grid_route(rule, f)
    assert pointwise_calls == []


@pytest.mark.parametrize(
    "coordinate, on_grid",
    [(-0.0, True), (0.25, False), (np.nextafter(0.5, 0), False), (np.nextafter(0.5, 1), False), (1 - 2**-53, False)],
)
def test_the_grid_decision_at_its_edges(coordinate, on_grid, pointwise_calls):
    rng = np.random.default_rng(9)
    nodes = rng.integers(0, 2, size=(5, 3)) * 0.5
    nodes[2, 1] = coordinate
    rule = CubatureRule(3, nodes, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    f = random_polynomial(3, 12, rng, max_magnitude=3)
    expected = float_grid_route(rule, f)
    assert (expected is not None) == on_grid
    value = apply_rule(rule, f)
    if on_grid:
        assert value == expected and pointwise_calls == []
    else:
        assert value == pointwise(rule, f) and pointwise_calls == [5]


def test_the_half_grid_route_makes_no_full_size_temporary():
    rule = rectangle_rule(15)
    f = FourierPolynomial(15, {(0,) * 15: 1.0, (1,) + (0,) * 14: 0.5j, (2, -1) + (0,) * 13: -0.25})
    tracemalloc.start()
    try:
        value = apply_rule(rule, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak < rule.nodes.nbytes  # 3.9 MB of float nodes


@pytest.mark.parametrize("kind", [["--rectangle"], ["--folded", "--invariant", "1-6"]], ids=["rectangle", "folded"])
def test_half_grid_integrate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    assert cli.main(["rule", "-d", "12", *kind, "--out", str(rule)]) == 0
    f = random_polynomial(12, 300, np.random.default_rng(12), max_magnitude=3)
    poly.write_text(json.dumps(f.to_json_dict()))
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symquad.__file__)), OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "symquad.cli", "integrate", "--rule", str(rule), "--poly", str(poly)]
        done = subprocess.run(argv, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.add(done.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("node", [0.5, 0.25], ids=["half-grid", "pointwise"])
@pytest.mark.parametrize(
    "weights, terms",
    [
        ([1e300, 1e300], {(0,): 1e300}),  # a product beyond the float range
        ([1e300j, 1e300j], {(0,): 1e300}),  # in its imaginary part only
        ([1.7e308, 1.7e308], {(0,): 1.0}),  # a sum of weights beyond it
        ([1e300, 1e300], {(0,): 1e300, (2,): -1e300}),  # products of inf and -inf, which math.fsum refuses
    ],
    ids=["product", "imaginary-product", "weight-sum", "inf-minus-inf"],
)
def test_an_overflow_raises_overflow_error_and_no_numpy_warning(node, weights, terms):
    rule = CubatureRule(1, [[0.0], [node]], weights)
    with pytest.raises(OverflowError, match="overflowed the float range"):
        apply_rule(rule, FourierPolynomial(1, terms))


@pytest.mark.parametrize(
    "weights, value",
    [([1.7e308, 1.7e308], 0j), ([8e307, 9e307], complex(8e307 - 9e307))],
    ids=["equal-halves", "unequal-halves"],
)
def test_a_finite_w_whose_weight_sum_overflows_is_exact(weights, value):
    # W(1) = w_0 - w_1 is finite, though sum(w) - 2 w_1 overflows: the even and odd nodes are summed apart
    assert apply_rule(CubatureRule(1, [[0.0], [0.5]], weights), FourierPolynomial(1, {(1,): 1.0})) == value


def test_finite_products_whose_sum_overflows_raise_overflow_error(tmp_path, capsys):
    # each product c_k W(k mod 2) is 1e308; math.fsum of the two overflows, as the pointwise node 0.25 does not
    rule, poly = CubatureRule(1, [[0.0]], [1e308]), FourierPolynomial(1, {(0,): 1.0, (2,): 1.0})
    with pytest.raises(OverflowError, match=r"^the rule value overflowed the float range \(1\.8e308\)$"):
        apply_rule(rule, poly)
    assert math.isfinite(abs(apply_rule(CubatureRule(1, [[0.25]], [1e308]), poly)))
    (tmp_path / "rule.json").write_text(json.dumps(rule.to_json_dict()))
    (tmp_path / "poly.json").write_text(json.dumps(poly.to_json_dict()))
    code = cli.main(["integrate", "--rule", str(tmp_path / "rule.json"), "--poly", str(tmp_path / "poly.json")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: the rule value overflowed the float range (1.8e308)\n"
