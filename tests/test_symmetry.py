"""Orbit combinatorics against exhaustive permutation enumeration (d <= 7)."""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquad import (
    CapExceededError,
    FourierPolynomial,
    InvariancePattern,
    binary_orbit_representatives,
    canonicalize,
    critical_node_count,
    group_order,
    is_invariant,
    korobov_norm,
    orbit,
    orbit_stats,
    parse_coordinate_set,
    parse_groups,
    random_polynomial,
    symmetrize,
)
from symquad.symmetry import binary_orbit_members, canonical_rows, orbit_members


def all_group_permutations(pattern):
    """Every coordinate permutation of the pattern, as 0-based position maps."""
    perms_per_group = [list(itertools.permutations(g)) for g in pattern.groups]
    for combo in itertools.product(*perms_per_group) if perms_per_group else [()]:
        mapping = list(range(pattern.dim))
        for g, image in zip(pattern.groups, combo):
            for src, dst in zip(g, image):
                mapping[src - 1] = dst - 1
        yield tuple(mapping)


def permute_key(k, mapping):
    return tuple(k[mapping[i]] for i in range(len(k)))


def brute_orbit(k, pattern):
    return {permute_key(k, m) for m in all_group_permutations(pattern)}


# ---------------------------------------------------------------------------
# pattern construction and parsing


def test_pattern_validation():
    with pytest.raises(ValueError):
        InvariancePattern(3, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError):
        InvariancePattern(3, [(0, 1)])  # out of range
    with pytest.raises(ValueError):
        InvariancePattern(3, [()])  # empty group
    with pytest.raises(ValueError):
        InvariancePattern(0, [])


def test_parse_specs():
    assert parse_coordinate_set("1-3,5") == (1, 2, 3, 5)
    assert parse_coordinate_set("") == ()
    assert parse_groups("1-3;4,7") == ((1, 2, 3), (4, 7))
    pattern = InvariancePattern(7, parse_groups("1-3;4,7"))
    assert pattern.groups == ((1, 2, 3), (4, 7))


def test_pattern_json_roundtrip():
    p = InvariancePattern(6, [(1, 2), (3, 4, 5)])
    assert InvariancePattern.from_json_dict(p.to_json_dict()) == p


# ---------------------------------------------------------------------------
# group order, canonicalization, orbit statistics


def test_group_order_examples():
    assert group_order(InvariancePattern.single(5, (1, 2, 3))) == 6
    assert group_order(InvariancePattern.trivial(4)) == 1
    assert group_order(InvariancePattern(6, [(1, 2), (3, 4, 5)])) == 12


def test_canonicalize_examples():
    p = InvariancePattern.full(3)
    assert canonicalize((1, 0, 1), p) == (0, 1, 1)
    assert canonicalize((3, -1, 7), InvariancePattern.trivial(3)) == (3, -1, 7)


def test_canonicalize_is_lex_min_of_orbit():
    rng = np.random.default_rng(5)
    p = InvariancePattern(6, [(1, 3, 5), (2, 6)])
    for _ in range(25):
        k = tuple(int(v) for v in rng.integers(-3, 4, size=6))
        assert canonicalize(k, p) == min(brute_orbit(k, p))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5))
def test_canonicalize_idempotent(k):
    p = InvariancePattern(5, [(1, 2, 4)])
    once = canonicalize(tuple(k), p)
    assert canonicalize(once, p) == once


def test_orbit_stats_examples():
    p3 = InvariancePattern.full(3)
    stats = orbit_stats((0, 1, 1), p3)
    assert (stats.stabilizer_size, stats.orbit_size) == (2, 3)
    # brute force over all 6 permutations
    fixed = canonicalize((0, 1, 1), p3)
    count = sum(1 for m in all_group_permutations(p3) if permute_key((0, 1, 1), m) == (0, 1, 1))
    assert count == stats.stabilizer_size
    assert len(brute_orbit(fixed, p3)) == stats.orbit_size

    p4 = InvariancePattern.single(4, (1, 2, 3))
    stats = orbit_stats((0, 0, 0, 5), p4)
    assert (stats.stabilizer_size, stats.orbit_size) == (6, 1)
    stats = orbit_stats((0, 1), InvariancePattern.full(2))
    assert (stats.stabilizer_size, stats.orbit_size) == (1, 2)


def test_orbit_stats_invariant_under_group_action():
    rng = np.random.default_rng(9)
    p = InvariancePattern(5, [(2, 3, 5)])
    for _ in range(10):
        k = tuple(int(v) for v in rng.integers(-2, 3, size=5))
        base = orbit_stats(k, p)
        for member in brute_orbit(k, p):
            other = orbit_stats(member, p)
            assert other == base


def test_stabilizer_brute_force_binary_vectors():
    for dim in range(1, 7):
        p = InvariancePattern.full(dim)
        for bits in itertools.product((0, 1), repeat=dim):
            brute = sum(
                1 for m in all_group_permutations(p) if permute_key(bits, m) == bits
            )
            assert brute == orbit_stats(bits, p).stabilizer_size


def test_orbit_matches_brute_force():
    p = InvariancePattern(6, [(1, 2), (4, 5, 6)])
    k = (1, 0, 9, 1, 1, 0)
    members = list(orbit(k, p))
    assert len(members) == len(set(members)) == orbit_stats(k, p).orbit_size
    assert set(members) == brute_orbit(k, p)


# ---------------------------------------------------------------------------
# representative enumeration and the critical count


def test_representatives_d2_full():
    p = InvariancePattern.full(2)
    assert list(binary_orbit_representatives(p)) == [(0, 0), (0, 1), (1, 1)]


def test_representatives_count_d3():
    p = InvariancePattern.single(3, (1, 2))
    reps = list(binary_orbit_representatives(p))
    assert len(reps) == 6 == critical_node_count(p)


def test_representatives_d10_full_cover():
    p = InvariancePattern.full(10)
    reps = list(binary_orbit_representatives(p))
    assert len(reps) == 11
    sizes = [orbit_stats(r, p).orbit_size for r in reps]
    assert sum(sizes) == 1024
    union = set()
    for r in reps:
        union |= set(orbit(r, p))
    assert union == set(itertools.product((0, 1), repeat=10))


def test_critical_count_examples():
    assert critical_node_count(InvariancePattern.full(3)) == 4
    assert critical_node_count(InvariancePattern.trivial(4)) == 16
    assert critical_node_count(InvariancePattern(6, [(1, 2), (3, 4, 5)])) == 24


def test_enumeration_is_lexicographic_and_sized():
    for pattern in (
        InvariancePattern.trivial(5),
        InvariancePattern.full(5),
        InvariancePattern.single(6, (2, 4, 5)),
        InvariancePattern(7, [(1, 2), (4, 5, 6)]),
    ):
        reps = list(binary_orbit_representatives(pattern))
        assert reps == sorted(reps)
        assert len(reps) == critical_node_count(pattern)
        assert all(canonicalize(r, pattern) == r for r in reps)
        total = sum(orbit_stats(r, pattern).orbit_size for r in reps)
        assert total == 2**pattern.dim


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(binary_orbit_representatives(InvariancePattern.trivial(27)))
    # cap=None streams lazily
    stream = binary_orbit_representatives(InvariancePattern.trivial(27), cap=None)
    assert next(stream) == (0,) * 27


# ---------------------------------------------------------------------------
# symmetrizer


def test_symmetrize_two_element_orbit():
    p = InvariancePattern.full(2)
    f = FourierPolynomial(2, {(1, 0): 1.0})
    sym = symmetrize(f, p)
    assert sym.terms == {(0, 1): 0.5 + 0j, (1, 0): 0.5 + 0j}


def test_symmetrize_fixes_invariant_input():
    p = InvariancePattern.full(3)
    rng = np.random.default_rng(1)
    f = symmetrize(random_polynomial(3, 8, rng, max_magnitude=2), p)
    again = symmetrize(f, p)
    for k in set(f.support()) | set(again.support()):
        assert abs(f.coefficient(k) - again.coefficient(k)) <= 1e-12


def test_symmetrize_matches_brute_force_group_average():
    rng = np.random.default_rng(2)
    p = InvariancePattern.single(4, (1, 2, 3))
    f = random_polynomial(4, 10, rng, max_magnitude=2)
    sym = symmetrize(f, p)
    order = group_order(p)
    brute = FourierPolynomial(4, {})
    for mapping in all_group_permutations(p):
        brute = brute + (1.0 / order) * FourierPolynomial(
            4, {permute_key(k, mapping): c for k, c in f.terms.items()}
        )
    for k in set(sym.support()) | set(brute.support()):
        assert abs(sym.coefficient(k) - brute.coefficient(k)) <= 1e-12


def test_symmetrize_preserves_integral_exactly():
    rng = np.random.default_rng(3)
    p = InvariancePattern(5, [(1, 2), (3, 4)])
    f = random_polynomial(5, 12, rng, max_magnitude=1)
    assert symmetrize(f, p).integral() == f.integral()


def test_symmetrize_never_increases_norm():
    rng = np.random.default_rng(4)
    p = InvariancePattern.full(4)
    for alpha in (1.5, 2.0, 6.0):
        f = random_polynomial(4, 10, rng, max_magnitude=2)
        assert korobov_norm(symmetrize(f, p), alpha) <= korobov_norm(f, alpha) + 1e-12


# ---------------------------------------------------------------------------
# invariance predicate


def test_is_invariant_on_projection():
    rng = np.random.default_rng(6)
    p = InvariancePattern.single(4, (2, 3, 4))
    f = random_polynomial(4, 9, rng, max_magnitude=2)
    assert is_invariant(symmetrize(f, p), p, 0.0)
    assert not is_invariant(FourierPolynomial(2, {(1, 0): 1.0}), InvariancePattern.full(2), 1e-9)


def test_is_invariant_pointwise_oracle():
    rng = np.random.default_rng(8)
    p = InvariancePattern(5, [(1, 4, 5)])
    f = symmetrize(random_polynomial(5, 10, rng, max_magnitude=1), p)
    assert is_invariant(f, p, 1e-12)
    for mapping in all_group_permutations(p):
        x = tuple(rng.random(5))
        sigma_x = tuple(x[mapping[i]] for i in range(5))
        assert abs(f(x) - f(sigma_x)) <= 1e-10


# ---------------------------------------------------------------------------
# the array orbit core against the dict loops it replaced


def reference_canonicalize(k, pattern):
    out = list(k)
    for g in pattern.groups:
        for i, v in zip(g, sorted(out[i - 1] for i in g)):
            out[i - 1] = v
    return tuple(out)


def reference_symmetrize(f, pattern):
    """Orbit averaging one term at a time: bucket sums in key order, then ``complex / int``."""
    perms = list(all_group_permutations(pattern))
    buckets = {}
    for k, c in f.terms.items():
        canon = reference_canonicalize(k, pattern)
        buckets[canon] = buckets.get(canon, 0j) + c
    out = {}
    for canon in sorted(buckets):
        members = {permute_key(canon, m) for m in perms}
        avg = buckets[canon] / len(members)
        if avg == 0:
            continue
        for member in members:
            out[member] = avg
    return FourierPolynomial(f.dim, out)


def reference_is_invariant(f, pattern, tol):
    for k, c in f.terms.items():
        if abs(c - f.coefficient(reference_canonicalize(k, pattern))) > tol:
            return False
    return True


def term_bits(f):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in f.terms.items()]


def random_pattern(rng, dim, kind):
    """``kind`` 0: trivial, 1: one block, 2: up to three blocks."""
    perm = [int(i) + 1 for i in rng.permutation(dim)]
    if kind == 0:
        return InvariancePattern.trivial(dim)
    if kind == 1:
        return InvariancePattern.single(dim, perm[: int(rng.integers(1, dim + 1))])
    cuts = sorted(rng.choice(np.arange(1, dim + 1), size=min(dim, 3), replace=False).tolist())
    return InvariancePattern(dim, [perm[a:b] for a, b in zip([0, *cuts], cuts)])


def orbit_core_cases():
    rng = np.random.default_rng(20)
    for n in range(300):
        dim = int(rng.integers(1, 8))
        pattern = random_pattern(rng, dim, n % 3)
        n_terms = int(rng.integers(0, 14))
        yield pattern, random_polynomial(dim, n_terms, rng, max_magnitude=int(rng.integers(0, 4)))
    full3 = InvariancePattern.full(3)
    yield full3, FourierPolynomial(3, {})
    # the orbit of (1, 0, 0) sums to zero, so it leaves the support
    yield full3, FourierPolynomial(3, {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (0, 0, 1): -0.5 + 0j})
    yield InvariancePattern.full(2), FourierPolynomial(2, {(1, 0): 1 + 2j, (0, 1): -1 - 2j})


def test_symmetrize_and_is_invariant_match_the_dict_loops_bitwise():
    cases = 0
    for pattern, f in orbit_core_cases():
        sym, ref = symmetrize(f, pattern), reference_symmetrize(f, pattern)
        assert term_bits(sym) == term_bits(ref)
        nudged = dict(sym.terms)
        if nudged:
            key = max(nudged)
            nudged[key] += 1e-13
        for g in (f, sym, FourierPolynomial(f.dim, nudged)):
            for tol in (0.0, 1e-12):
                assert is_invariant(g, pattern, tol) == reference_is_invariant(g, pattern, tol)
        cases += 1
    assert cases >= 300


def test_orbit_members_of_integer_rows_match_brute_force():
    pattern = InvariancePattern(6, [(1, 3, 4), (2, 6)])
    rng = np.random.default_rng(21)
    rows = np.concatenate([rng.integers(-2, 3, size=(30, 6)),
                           [[-1, 5, -1, -1, 0, 5], [3, -3, 3, -3, 7, -3], [0] * 6]])
    members, owner = orbit_members(pattern, rows)
    assert members.dtype == np.int64 and members.shape == (len(owner), 6)
    assert (np.diff(owner) >= 0).all()

    def order(member):  # orbit() order: each block's arrangement lexicographic, later blocks fastest
        return tuple(member[i - 1] for g in pattern.groups for i in g)

    for n, row in enumerate(rows.tolist()):
        expected = sorted(brute_orbit(tuple(row), pattern), key=order)
        assert [tuple(m) for m in members[owner == n].tolist()] == expected
    assert binary_orbit_members is orbit_members


def test_orbit_members_of_no_rows():
    members, owner = orbit_members(InvariancePattern(6, [(1, 3, 4), (2, 6)]), np.zeros((0, 6), dtype=np.int64))
    assert members.shape == (0, 6) and owner.shape == (0,)


def test_canonical_rows_are_the_orbit_minima():
    pattern = InvariancePattern(6, [(1, 3, 4), (2, 6)])
    rows = np.random.default_rng(22).integers(-3, 4, size=(40, 6))
    canon = canonical_rows(pattern, rows)
    assert canon.dtype == np.int64
    assert [tuple(r) for r in canon.tolist()] == [min(brute_orbit(tuple(r), pattern)) for r in rows.tolist()]


def test_orbit_stays_a_generator():
    assert inspect.isgenerator(orbit((1, 0, 2), InvariancePattern.full(3)))
