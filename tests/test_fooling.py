"""Certificate construction, the nullspace solver, and the convolution crosscheck."""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from symquad import (
    CapExceededError,
    CubatureRule,
    DimensionMismatchError,
    InvariancePattern,
    NullspaceError,
    RefusalError,
    UnsupportedPatternError,
    WeightSchedule,
    apply_rule,
    canonical_binary_vectors,
    canonicalize,
    constraint_matrix,
    construct_certificate,
    construct_weighted_certificate,
    critical_node_count,
    crosscheck_coefficients,
    group_order,
    is_invariant,
    nullspace_solution,
    orbit,
    orbit_stats,
)
from symquad.fooling import DEFAULT_CHECK_TOL
from symquad.fourier import exp_2pi_i


def random_rule(rng, dim, n_nodes):
    nodes = rng.random((n_nodes, dim))
    weights = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
    return CubatureRule(dim, nodes, weights)


# ---------------------------------------------------------------------------
# constraint matrix


def test_constraint_matrix_one_dim_trivial():
    rule = CubatureRule(1, [[0.0]], [1.0])
    mat = constraint_matrix(rule, InvariancePattern.trivial(1), [(0,), (1,)])
    assert mat.shape == (1, 2)
    assert np.allclose(mat, [[1.0, 1.0]])


def test_constraint_matrix_orbit_average_hand_oracle():
    # node (0, 0.5) under the swap group; first mode is constant with
    # stabilizer 2, second has the two-element orbit {(0,1),(1,0)}.
    rule = CubatureRule(2, [[0.0, 0.5]], [1.0])
    pattern = InvariancePattern.full(2)
    mat = constraint_matrix(rule, pattern, [(0, 0), (0, 1)])
    hand_col0 = 1.0 / 2.0  # exp(0) / (orbit 1 * stabilizer 2)
    hand_col1 = (np.exp(2j * np.pi * 0.5) + np.exp(0j)) / 2.0  # orbit sum / group order
    assert mat[0, 0] == pytest.approx(hand_col0, abs=1e-15)
    assert abs(mat[0, 1] - hand_col1) <= 1e-15
    assert abs(mat[0, 1]) <= 1e-15  # the orbit sum cancels at this node


def test_constraint_matrix_entries_bounded():
    rng = np.random.default_rng(0)
    pattern = InvariancePattern.single(4, (1, 2, 3))
    rule = random_rule(rng, 4, 5)
    psi = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]
    mat = constraint_matrix(rule, pattern, psi)
    assert np.all(np.abs(mat) <= 1.0 + 1e-12)


def random_pattern(rng, dim, max_blocks):
    coords = list(rng.permutation(np.arange(1, dim + 1)))
    groups = []
    while coords and len(groups) < max_blocks:
        size = int(rng.integers(1, len(coords) + 1))
        groups.append(coords[:size])
        coords = coords[size:]
    return InvariancePattern(dim, groups)


@pytest.mark.parametrize("max_blocks", [1, 3])
def test_constraint_matrix_matches_brute_force_orbit_sums(max_blocks):
    rng = np.random.default_rng(20 + max_blocks)
    for _ in range(25):
        pattern = random_pattern(rng, int(rng.integers(1, 9)), max_blocks)
        vectors, _ = canonical_binary_vectors(pattern)
        n_nodes = int(rng.integers(0, len(vectors)))
        psi = [tuple(v) for v in vectors[rng.permutation(len(vectors))[: n_nodes + 1]].tolist()]
        rule = random_rule(rng, pattern.dim, n_nodes)
        orbits = [np.array(list(orbit(key, pattern))) for key in psi]
        sums = [np.exp(2j * np.pi * members @ rule.nodes.T).sum(axis=0) for members in orbits]
        brute = np.stack(sums, axis=1) / group_order(pattern)
        mat = constraint_matrix(rule, pattern, psi)
        assert mat.shape == brute.shape
        assert np.max(np.abs(mat - brute), initial=0.0) <= 1e-13


@pytest.mark.parametrize(
    "pattern",
    [InvariancePattern.trivial(9), InvariancePattern.single(8, (2, 5, 7)), InvariancePattern.full(6)],
    ids=["trivial", "single-block", "full"],
)
def test_constraint_matrix_matches_direct_formula(pattern):
    # the free factor as one exponential per entry, each block's orbit sum as
    # e_j(z_B) summed over the j-subsets of the block
    rng = np.random.default_rng(26)
    vectors, _ = canonical_binary_vectors(pattern)
    n_nodes = min(len(vectors) - 1, 120)
    psi = vectors[: n_nodes + 1]
    rule = random_rule(rng, pattern.dim, n_nodes)
    blocks = [[i - 1 for i in g] for g in pattern.groups]
    free = sorted(set(range(pattern.dim)).difference(*blocks))
    direct = exp_2pi_i(rule.nodes[:, free] @ psi[:, free].T.astype(float))
    for cols in blocks:
        z = np.exp(2j * np.pi * rule.nodes[:, cols])
        ones = psi[:, cols].sum(axis=1)
        for j in range(len(cols) + 1):
            subsets = itertools.combinations(range(len(cols)), j)
            e_j = sum(np.prod(z[:, list(c)], axis=1) for c in subsets)  # e_0 = empty product = 1
            direct[:, ones == j] *= e_j[:, None]
    direct /= group_order(pattern)
    mat = constraint_matrix(rule, pattern, psi.tolist())
    assert np.max(np.abs(mat - direct), initial=0.0) <= 1e-14


# ---------------------------------------------------------------------------
# nullspace


def assert_nullspace_contract(mat, sol, tol):
    coeffs = sol.coefficients
    moduli = np.abs(coeffs)
    assert coeffs[sol.pivot_index] == 1.0
    assert np.max(moduli) <= 1.0
    assert np.all(moduli[: sol.pivot_index] < 1.0)
    assert sol.residual == np.max(np.abs(np.asarray(mat) @ coeffs))
    assert sol.residual <= tol


def test_nullspace_contract_with_nullity_above_one():
    rng = np.random.default_rng(30)
    for n_rows, rank in ((6, 1), (6, 4), (40, 20), (41, 39)):
        left = rng.standard_normal((n_rows, rank)) + 1j * rng.standard_normal((n_rows, rank))
        right = rng.standard_normal((rank, n_rows + 1)) + 1j * rng.standard_normal((rank, n_rows + 1))
        mat = left @ right / rank
        assert_nullspace_contract(mat, nullspace_solution(mat), 1e-12)
    zero = np.zeros((5, 6), dtype=complex)
    assert_nullspace_contract(zero, nullspace_solution(zero), 0.0)


def test_nullspace_contract_on_near_singular_matrices():
    rng = np.random.default_rng(31)
    for n_rows in (5, 60):
        for smallest in (1e-8, 1e-14, 1e-18):
            u, _ = np.linalg.qr(rng.standard_normal((n_rows, n_rows)) + 1j * rng.standard_normal((n_rows, n_rows)))
            v, _ = np.linalg.qr(
                rng.standard_normal((n_rows + 1, n_rows + 1))
                + 1j * rng.standard_normal((n_rows + 1, n_rows + 1))
            )
            sigma = np.logspace(0, np.log10(smallest), n_rows)
            mat = (u * sigma) @ v[:, :n_rows].conj().T
            assert_nullspace_contract(mat, nullspace_solution(mat), 1e-12)


def complete_qr_null_vector(mat):
    """The last column of the complete Q of ``mat^T``, conjugated: ``mat @ q = 0``."""
    q_mat, _ = np.linalg.qr(np.asarray(mat).T, mode="complete")
    return q_mat[:, -1].conj()


def assert_parallel(u, v, tol):
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    assert np.linalg.norm(u - np.vdot(v, u) * v) <= tol


def test_nullspace_matches_complete_qr_column():
    rng = np.random.default_rng(32)
    mats = [np.exp(2j * np.pi * rng.random((n, n + 1))) for n in (1, 4, 33, 300)]
    left = np.exp(2j * np.pi * rng.random((40, 25)))
    mats.append(left @ np.exp(2j * np.pi * rng.random((25, 41))) / 25)  # rank 25 of 40
    for mat in mats:
        sol = nullspace_solution(mat)
        assert_parallel(sol.coefficients, complete_qr_null_vector(mat), 1e-12)
        assert sol.residual <= DEFAULT_CHECK_TOL * np.max(np.abs(mat))


def test_nullspace_one_by_two():
    sol = nullspace_solution(np.array([[1.0, 1.0]], dtype=complex))
    assert sol.pivot_index == 0
    assert np.allclose(sol.coefficients, [1.0, -1.0])
    assert sol.residual <= 1e-14


def test_nullspace_empty_system():
    sol = nullspace_solution(np.zeros((0, 1), dtype=complex))
    assert sol.pivot_index == 0
    assert np.allclose(sol.coefficients, [1.0])
    assert sol.residual == 0.0


def test_nullspace_random_rectangular():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mat = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        sol = nullspace_solution(mat)
        assert np.max(np.abs(mat @ sol.coefficients)) <= 1e-10
        moduli = np.abs(sol.coefficients)
        assert sol.coefficients[sol.pivot_index] == 1.0
        assert np.max(moduli) <= 1.0 + 1e-12


def test_nullspace_rank_deficient_rows():
    mat = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], dtype=complex)
    sol = nullspace_solution(mat)
    assert np.max(np.abs(mat @ sol.coefficients)) <= 1e-12


def test_nullspace_residual_error_carries_value():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    with pytest.raises(NullspaceError) as err:
        nullspace_solution(mat, residual_tol=0.0)
    assert err.value.residual > 0.0


def test_nullspace_deterministic():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    a = nullspace_solution(mat)
    b = nullspace_solution(mat.copy())
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.pivot_index == b.pivot_index


# ---------------------------------------------------------------------------
# certificate construction


def test_certificate_one_dim_hand_example():
    rule = CubatureRule(1, [[0.0]], [1.0])
    cert = construct_certificate(rule, InvariancePattern.trivial(1), 2.0)
    assert cert.polynomial.terms == {(0,): 1.0 + 0j, (1,): -1.0 + 0j}
    assert cert.rule_value == 0
    assert cert.integral_value == 1.0
    assert cert.norm_value == 1.0


def test_certificate_zero_rule():
    zero = CubatureRule(4, [], [])
    pattern = InvariancePattern.single(4, (2, 3))
    cert = construct_certificate(zero, pattern, 1.5)
    assert cert.polynomial.integral() == 1.0
    assert cert.norm_value <= 1.0 + 1e-12
    assert cert.rule_value == 0


def test_certificate_random_rule_passes_checks():
    rng = np.random.default_rng(3)
    pattern = InvariancePattern.single(3, (1, 2))
    assert critical_node_count(pattern) == 6
    rule = random_rule(rng, 3, 5)
    cert = construct_certificate(rule, pattern, 2.0)
    assert abs(cert.rule_value) <= 1e-9 * (1 + rule.weight_abs_sum())
    assert cert.polynomial.integral() == 1.0
    assert cert.norm_value <= 1.0 + 1e-9
    assert all(e in (-1, 0, 1) for k in cert.polynomial.support() for e in k)
    assert is_invariant(cert.polynomial, pattern, 1e-10)


def test_certificate_refusal_at_threshold():
    rng = np.random.default_rng(4)
    pattern = InvariancePattern.full(3)
    rule = random_rule(rng, 3, critical_node_count(pattern))
    with pytest.raises(RefusalError) as err:
        construct_certificate(rule, pattern, 2.0)
    assert err.value.threshold == 4
    assert err.value.upper_bound_error > 0


def test_certificate_rejects_multi_group():
    rng = np.random.default_rng(5)
    pattern = InvariancePattern(4, [(1, 2), (3, 4)])
    with pytest.raises(UnsupportedPatternError):
        construct_certificate(random_rule(rng, 4, 2), pattern, 2.0)


def test_certificate_norm_independent_of_alpha():
    rng = np.random.default_rng(6)
    pattern = InvariancePattern.single(4, (1, 2, 3))
    rule = random_rule(rng, 4, 6)
    norms = {
        alpha: construct_certificate(rule, pattern, alpha).norm_value
        for alpha in (1.5, 3.0, 10.0)
    }
    values = list(norms.values())
    assert max(values) - min(values) <= 1e-12


def test_certificate_deterministic_bytes():
    rng = np.random.default_rng(7)
    pattern = InvariancePattern.single(5, (1, 2, 3, 4))
    nodes = rng.random((7, 5))
    weights = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    one = construct_certificate(CubatureRule(5, nodes, weights), pattern, 2.0)
    two = construct_certificate(CubatureRule(5, nodes, weights), pattern, 2.0)
    assert json.dumps(one.to_json_dict(), sort_keys=True) == json.dumps(
        two.to_json_dict(), sort_keys=True
    )


def test_certificate_support_count_and_exact_zero_coefficient():
    # the pivot coefficient is exactly 1 by the rational-multiplicity path
    rng = np.random.default_rng(8)
    for dim, members, n_nodes in ((6, (1, 2, 3, 4, 5, 6), 4), (5, (), 12), (4, (1, 3), 5)):
        pattern = InvariancePattern.single(dim, members)
        rule = random_rule(rng, dim, n_nodes)
        cert = construct_certificate(rule, pattern, 2.0)
        assert cert.polynomial.integral() == 1.0 + 0j


def test_certificate_with_huge_threshold_uses_lazy_prefix():
    # the canonical-vector stream is consumed lazily: only n+1 modes are
    # ever needed, even when the full enumeration would be 2^30 entries
    rng = np.random.default_rng(14)
    pattern = InvariancePattern.trivial(30)
    rule = random_rule(rng, 30, 3)
    cert = construct_certificate(rule, pattern, 2.0)
    assert len(cert.mode_order) == 4
    assert cert.polynomial.integral() == 1.0
    assert cert.norm_value <= 1.0 + 1e-9


def test_mode_rank_matches_brute_force():
    rng = np.random.default_rng(9)
    for dim, members in ((4, (1, 2, 3)), (5, (2, 3, 4, 5)), (6, ())):
        pattern = InvariancePattern.single(dim, members)
        n_nodes = min(critical_node_count(pattern) - 1, 6)
        rule = random_rule(rng, dim, n_nodes)
        cert = construct_certificate(rule, pattern, 2.0)
        rank_of = {key: n for n, key in enumerate(cert.mode_order)}
        for bits in itertools.product((0, 1), repeat=dim):
            matches = [
                n
                for n, key in enumerate(cert.mode_order)
                if bits in set(orbit(key, pattern))
            ]
            assert len(matches) <= 1
            brute = matches[0] if matches else None
            assert rank_of.get(canonicalize(bits, pattern)) == brute


def reference_terms(cert, pattern):
    """The closed coefficient formula as a plain dict loop over orbit pairs."""
    psi = cert.mode_order
    pivot = cert.solution.pivot_index
    order = group_order(pattern)
    stab_pivot = orbit_stats(psi[pivot], pattern).stabilizer_size
    counts = {}
    for v in orbit(psi[pivot], pattern):
        for n, key in enumerate(psi):
            for h in orbit(key, pattern):
                diff = tuple(hm - vm for hm, vm in zip(h, v))
                per_mode = counts.setdefault(diff, {})
                per_mode[n] = per_mode.get(n, 0) + 1
    terms = {}
    for diff in sorted(counts):
        acc = 0j
        for n in sorted(counts[diff]):
            acc += float(Fraction(counts[diff][n] * stab_pivot, order)) * cert.solution.coefficients[n]
        if acc != 0:
            terms[diff] = complex(acc)
    return terms


def test_coefficient_assembly_matches_dict_loop_reference():
    rng = np.random.default_rng(32)
    cases = [
        (InvariancePattern.full(19), 2),  # group order 19! exceeds 2**53
        (InvariancePattern.trivial(6), 40),
        (InvariancePattern.trivial(40), 3),  # difference codes beyond int64
        (InvariancePattern.single(7, (2, 3, 5, 6)), 30),
        (InvariancePattern.single(8, (1, 2, 3, 4, 5, 6)), 27),
    ]
    for _ in range(10):
        pattern = random_pattern(rng, int(rng.integers(1, 8)), 1)
        cases.append((pattern, int(rng.integers(0, critical_node_count(pattern)))))
    for pattern, n_nodes in cases:
        cert = construct_certificate(random_rule(rng, pattern.dim, n_nodes), pattern, 2.0)
        terms = cert.polynomial.terms
        assert terms == reference_terms(cert, pattern)
        assert list(terms) == sorted(terms)
        assert terms[(0,) * pattern.dim] == 1 + 0j


# ---------------------------------------------------------------------------
# crosscheck between the closed formula and the literal product


def test_crosscheck_one_dim():
    rule = CubatureRule(1, [[0.0]], [1.0])
    cert = construct_certificate(rule, InvariancePattern.trivial(1), 2.0)
    report = crosscheck_coefficients(cert, InvariancePattern.trivial(1))
    assert report.max_abs_deviation <= 1e-14


def test_crosscheck_full_group_random_nodes():
    rng = np.random.default_rng(10)
    pattern = InvariancePattern.full(3)
    rule = random_rule(rng, 3, 2)
    cert = construct_certificate(rule, pattern, 2.0)
    report = crosscheck_coefficients(cert, pattern)
    assert report.max_abs_deviation <= 1e-10


def test_crosscheck_trivial_pattern_random_nodes():
    rng = np.random.default_rng(11)
    pattern = InvariancePattern.trivial(2)
    rule = random_rule(rng, 2, 3)
    cert = construct_certificate(rule, pattern, 2.0)
    report = crosscheck_coefficients(cert, pattern)
    assert report.max_abs_deviation <= 1e-10


def test_crosscheck_guards():
    rng = np.random.default_rng(12)
    pattern = InvariancePattern.trivial(9)
    rule = random_rule(rng, 9, 1)
    cert = construct_certificate(rule, pattern, 2.0)
    with pytest.raises(CapExceededError):
        crosscheck_coefficients(cert, pattern)


def test_rule_vanishing_witnessed_error():
    # witnessed error |integral - rule value| reaches the initial error
    rng = np.random.default_rng(13)
    pattern = InvariancePattern.single(4, (1, 2))
    rule = random_rule(rng, 4, 10)
    cert = construct_certificate(rule, pattern, 2.0)
    witnessed = abs(cert.integral_value - apply_rule(rule, cert.polynomial))
    assert witnessed >= 1 - 1e-8


# ---------------------------------------------------------------------------
# mode-order validation and the nullspace residual scale


@pytest.mark.parametrize(
    "psi, error, message",
    [
        ([(0, 0, 0, 0), (0, 0, 0, 1)], ValueError, "must list 3 vectors"),
        ([(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0)], DimensionMismatchError, "wrong dimension"),
        ([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2)], ValueError, "0/1"),
        ([(0, 0, 0, 0), (0, 0, 0, 1), (0, -1, 0, 0)], ValueError, "0/1"),
        ([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0.5)], ValueError, "0/1"),
        ([(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)], ValueError, "canonical"),
        ([(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], ValueError, "canonical"),
        ([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1)], ValueError, "distinct"),
    ],
)
def test_mode_order_validation(psi, error, message):
    rule = random_rule(np.random.default_rng(14), 4, 2)
    pattern = InvariancePattern(4, [(1, 2), (3, 4)])
    with pytest.raises(error, match=message) as err:
        constraint_matrix(rule, pattern, psi)
    assert error is DimensionMismatchError or not isinstance(err.value, DimensionMismatchError)
    if psi[1:] != [(0, 1, 0, 0), (0, 0, 1, 0)]:  # canonical when (1, 2) is the only block
        with pytest.raises(error, match=message):
            construct_certificate(rule, InvariancePattern.single(4, (1, 2)), 2.0, mode_order=psi)


def test_mode_order_accepts_any_distinct_canonical_rows():
    rule = random_rule(np.random.default_rng(15), 4, 2)
    pattern = InvariancePattern(4, [(1, 2), (3, 4)])
    psi = [(0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 0)]
    reordered = constraint_matrix(rule, pattern, psi[::-1])[:, ::-1]
    np.testing.assert_array_equal(constraint_matrix(rule, pattern, psi), reordered)


def test_nullspace_check_is_relative_to_the_matrix_scale(monkeypatch):
    # full(19): every constraint-matrix entry is below 1e-16 (orbit sums over
    # 19!), so an absolute residual bound of 1e-9 accepts any vector.  With a
    # raw QR whose reflectors are all the identity (h = 0, tau = 0) the "null
    # vector" is the unit vector e_{n+1}, whose residual is a whole column of
    # A; it must be rejected as a nullspace failure.
    rule = random_rule(np.random.default_rng(5), 19, 2)
    pattern = InvariancePattern.full(19)
    assert construct_certificate(rule, pattern, 2.0).residuals["nullspace"] < 1e-30
    monkeypatch.setattr(
        np.linalg,
        "qr",
        lambda a, mode="reduced": (np.zeros(a.shape[::-1], dtype=complex), np.zeros(a.shape[1], dtype=complex)),
    )
    with pytest.raises(NullspaceError):
        construct_certificate(rule, pattern, 2.0)


def test_crosscheck_of_a_weighted_certificate_applies_its_scale():
    rng = np.random.default_rng(15)
    pattern = InvariancePattern.single(4, (1, 2, 3))
    schedule = WeightSchedule(4, (1.0, 0.5, 0.5, 0.25))
    cert = construct_weighted_certificate(random_rule(rng, 4, 5), pattern, 2.0, schedule)
    assert cert.weight_scale < 0.9
    assert crosscheck_coefficients(cert, pattern).max_abs_deviation <= 1e-10
    unscaled = crosscheck_coefficients(dataclasses.replace(cert, weight_scale=None), pattern)
    assert unscaled.max_abs_deviation > 0.01


def test_constraint_matrix_refuses_a_rule_at_the_critical_count():
    pattern = InvariancePattern.single(3, (1, 2))  # six canonical 0/1 vectors
    rule = random_rule(np.random.default_rng(16), 3, critical_node_count(pattern))
    psi = canonical_binary_vectors(pattern)[0]
    with pytest.raises(RefusalError) as err:
        constraint_matrix(rule, pattern, psi)
    assert (err.value.n_nodes, err.value.threshold) == (6, 6)
