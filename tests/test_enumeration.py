"""The array enumeration core against brute force, and the rules built on it."""

import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symquad import (
    CapExceededError,
    InvariancePattern,
    binary_orbit_representatives,
    binary_orbit_sizes,
    canonical_binary_vectors,
    canonicalize,
    critical_node_count,
    folded_rectangle_rule,
    group_order,
    orbit,
    orbit_stats,
    rectangle_rule,
)
from symquad.symmetry import binary_orbit_members


@st.composite
def patterns(draw, max_dim=10):
    """Random patterns with up to ``max_dim`` coordinates and any number of blocks."""
    dim = draw(st.integers(1, max_dim))
    coords = draw(st.permutations(range(1, dim + 1)))
    groups = []
    rest = list(coords)
    while rest and draw(st.booleans()):
        size = draw(st.integers(1, len(rest)))
        groups.append(rest[:size])
        rest = rest[size:]
    return InvariancePattern(dim, groups)


def brute_canonical(pattern):
    return [
        v
        for v in itertools.product((0, 1), repeat=pattern.dim)
        if canonicalize(v, pattern) == v
    ]


def as_tuples(vectors):
    return list(map(tuple, vectors.tolist()))


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_core_equals_brute_force_filter(pattern):
    vectors, ones = canonical_binary_vectors(pattern)
    assert vectors.dtype == np.uint8
    assert vectors.shape == (critical_node_count(pattern), pattern.dim)
    assert as_tuples(vectors) == brute_canonical(pattern)
    for r, g in enumerate(pattern.groups):
        assert ones[:, r].tolist() == [sum(v[i - 1] for i in g) for v in as_tuples(vectors)]


@settings(max_examples=30, deadline=None)
@given(patterns(max_dim=8))
def test_every_stop_gives_the_prefix(pattern):
    full = brute_canonical(pattern)
    for stop in range(len(full) + 2):
        vectors, ones = canonical_binary_vectors(pattern, stop=stop)
        assert as_tuples(vectors) == full[:stop]
        assert ones.shape == (min(stop, len(full)), len(pattern.groups))


def test_stop_must_be_integral():
    pattern = InvariancePattern.trivial(3)
    for stop in (1.7, 0.5, math.inf, "2"):
        with pytest.raises(ValueError, match="stop"):
            canonical_binary_vectors(pattern, stop=stop)
    assert canonical_binary_vectors(pattern, stop=2.0)[0].tolist() == [[0, 0, 0], [0, 0, 1]]


@settings(max_examples=40, deadline=None)
@given(patterns())
def test_orbit_sizes_equal_orbit_stats(pattern):
    vectors, ones = canonical_binary_vectors(pattern)
    sizes = binary_orbit_sizes(pattern, ones).tolist()
    stats = [orbit_stats(v, pattern) for v in as_tuples(vectors)]
    assert sizes == [s.orbit_size for s in stats]
    assert all(type(s) is int for s in sizes)
    assert sum(sizes) == 2**pattern.dim


def test_orbit_sizes_exact_for_a_block_of_100():
    pattern = InvariancePattern.full(100)
    vectors, ones = canonical_binary_vectors(pattern)
    assert as_tuples(vectors) == [(0,) * (100 - j) + (1,) * j for j in range(101)]
    sizes = binary_orbit_sizes(pattern, ones).tolist()
    assert sizes == [math.comb(100, j) for j in range(101)]
    assert sizes[50] > 2**63
    assert sum(sizes) == 2**100
    stabs = (group_order(pattern) // binary_orbit_sizes(pattern, ones)).tolist()
    assert stabs == [math.factorial(j) * math.factorial(100 - j) for j in range(101)]


def test_core_cap_counts_the_requested_rows():
    pattern = InvariancePattern.trivial(30)
    with pytest.raises(CapExceededError):
        canonical_binary_vectors(pattern, cap=1 << 26)
    vectors, _ = canonical_binary_vectors(pattern, stop=5, cap=8)
    assert as_tuples(vectors) == [(0,) * 27 + tuple(map(int, f"{j:03b}")) for j in range(5)]


def test_stream_crosses_prefix_boundaries():
    for pattern in (InvariancePattern.trivial(12), InvariancePattern(13, [(2, 3, 4), (7, 9)])):
        streamed = list(binary_orbit_representatives(pattern, cap=None))
        assert streamed == as_tuples(canonical_binary_vectors(pattern)[0])


@pytest.mark.parametrize("dim", [1, 5, 10, 14])
def test_rectangle_rule_is_the_folded_trivial_rule(dim):
    full = rectangle_rule(dim)
    folded = folded_rectangle_rule(InvariancePattern.trivial(dim))
    assert full.nodes.tobytes() == folded.nodes.tobytes()
    assert full.weights.tobytes() == folded.weights.tobytes()
    bits = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=np.float64)
    assert np.array_equal(full.nodes, 0.5 * bits)
    assert np.all(full.weights == 2.0**-dim)


def test_rule_json_uses_plain_floats():
    rule = folded_rectangle_rule(InvariancePattern(5, [(1, 2), (3, 4, 5)]))
    data = rule.to_json_dict()
    assert all(type(v) is float for row in data["nodes"] for v in row)
    assert all(type(w["re"]) is float and type(w["im"]) is float for w in data["weights"])
    elementwise = {
        "dim": rule.dim,
        "nodes": [[float(v) for v in row] for row in rule.nodes],
        "weights": [{"re": float(w.real), "im": float(w.imag)} for w in rule.weights],
    }
    assert json.dumps(data, sort_keys=True) == json.dumps(elementwise, sort_keys=True)


@st.composite
def single_block_patterns(draw, max_dim=8):
    dim = draw(st.integers(1, max_dim))
    size = draw(st.integers(0, dim))
    return InvariancePattern.single(dim, draw(st.permutations(range(1, dim + 1)))[:size])


def orbit_listing(pattern, vectors):
    return [(n, k) for n, v in enumerate(as_tuples(vectors)) for k in orbit(v, pattern)]


@settings(max_examples=60, deadline=None)
@given(single_block_patterns(), st.randoms(use_true_random=False))
@example(InvariancePattern.trivial(8), random.Random(0))
@example(InvariancePattern.full(8), random.Random(0))
@example(InvariancePattern.full(1), random.Random(0))
def test_orbit_members_follow_orbit_order(pattern, rnd):
    vectors, _ = canonical_binary_vectors(pattern)
    rows = rnd.sample(range(len(vectors)), rnd.randint(1, len(vectors)))
    for subset in (vectors, vectors[rows]):
        members, owner = binary_orbit_members(pattern, subset)
        assert list(zip(owner.tolist(), as_tuples(members))) == orbit_listing(pattern, subset)


@settings(max_examples=30, deadline=None)
@given(patterns(max_dim=8))
def test_orbit_members_of_multi_block_patterns(pattern):
    vectors, _ = canonical_binary_vectors(pattern)
    members, owner = binary_orbit_members(pattern, vectors.astype(np.int64))
    assert list(zip(owner.tolist(), as_tuples(members))) == orbit_listing(pattern, vectors)
    assert len(members) == 2**pattern.dim


@pytest.mark.parametrize("dim, count", [(27, "134217728"), (20000, "at least 2^20000")])
def test_every_enumeration_refuses_with_one_message(dim, count):
    # 2^20000 has 6,021 digits, beyond the 4,300 that Python writes as text
    message = f"^enumeration of {re.escape(count)} representatives exceeds cap 67108864$"
    pattern = InvariancePattern.trivial(dim)
    for build in (canonical_binary_vectors, lambda p: list(binary_orbit_representatives(p)), rectangle_rule,
                  folded_rectangle_rule):
        with pytest.raises(CapExceededError, match=message):
            build(dim if build is rectangle_rule else pattern)
