"""Coordinate-permutation groups, orbits, and the folded index set.

An invariance pattern names disjoint blocks of coordinates; the associated
group permutes coordinates freely within each block and fixes the rest.
This module provides the orbit combinatorics of that action on frequency
vectors: canonical orbit representatives, stabilizer and orbit sizes (kept
as exact big integers), the lexicographic enumeration of the canonical 0/1
vectors that index the folded rectangle rule, and the orbit-averaging
projection onto invariant polynomials.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceededError, DimensionMismatchError
from .fourier import FourierPolynomial, MultiIndex, require_integral, validate_multi_index

#: Default ceiling on the size of materialized enumerations.
DEFAULT_ENUMERATION_CAP = 1 << 26


@dataclass(frozen=True)
class InvariancePattern:
    """Disjoint blocks of 1-based coordinates that may be permuted freely.

    ``groups`` is a tuple of sorted tuples.  The empty tuple encodes the
    pattern with no interchangeable coordinates (the trivial group).
    """

    dim: int
    groups: tuple[tuple[int, ...], ...]

    def __init__(self, dim, groups=()):
        dim = require_integral(dim, "dimension")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        norm = []
        seen: set[int] = set()
        for g in groups:
            members = sorted(require_integral(i, "coordinate") for i in g)
            if not members:
                raise ValueError("empty coordinate groups are not allowed")
            for i in members:
                if not 1 <= i <= dim:
                    raise ValueError(f"coordinate {i} outside 1..{dim}")
                if i in seen:
                    raise ValueError(f"coordinate {i} appears in more than one group")
                seen.add(i)
            norm.append(tuple(members))
        norm.sort(key=lambda g: g[0])
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "groups", tuple(norm))

    @classmethod
    def trivial(cls, dim) -> "InvariancePattern":
        """No interchangeable coordinates."""
        return cls(dim, ())

    @classmethod
    def full(cls, dim) -> "InvariancePattern":
        """All coordinates in a single interchangeable block."""
        return cls(dim, (tuple(range(1, int(dim) + 1)),))

    @classmethod
    def single(cls, dim, members) -> "InvariancePattern":
        """One block given by an iterable of 1-based coordinates."""
        members = tuple(members)
        return cls(dim, (members,) if members else ())

    @property
    def invariant_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "groups": [list(g) for g in self.groups]}

    @classmethod
    def from_json_dict(cls, data) -> "InvariancePattern":
        return cls(data["dim"], [tuple(g) for g in data.get("groups", [])])


def parse_coordinate_set(spec: str) -> tuple[int, ...]:
    """Parse ``"1-3,5"`` into the coordinate tuple ``(1, 2, 3, 5)``."""
    members: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"bad coordinate range {part!r}")
            members.extend(range(lo, hi + 1))
        elif part:
            members.append(int(part))
    return tuple(members)


def parse_groups(spec: str) -> tuple[tuple[int, ...], ...]:
    """Parse ``"1-3;4,7"`` into coordinate groups, one per ';'-separated part."""
    groups = []
    for part in spec.split(";"):
        members = parse_coordinate_set(part)
        if members:
            groups.append(members)
    return tuple(groups)


def group_order(pattern: InvariancePattern) -> int:
    """Number of coordinate permutations in the pattern's group (exact int)."""
    return math.prod(math.factorial(len(g)) for g in pattern.groups)


def canonicalize(k, pattern: InvariancePattern) -> MultiIndex:
    """Canonical orbit representative: each block's entries sorted ascending.

    Within every group the entries are rearranged non-decreasingly, which is
    the lexicographically smallest element of the orbit; coordinates outside
    all groups are untouched.  Idempotent.
    """
    key = validate_multi_index(k, pattern.dim)
    out = list(key)
    for g in pattern.groups:
        values = sorted(out[i - 1] for i in g)
        for i, v in zip(g, values):
            out[i - 1] = v
    return tuple(out)


@dataclass(frozen=True)
class OrbitStats:
    """Orbit data of a frequency vector under a pattern's group."""

    canonical: MultiIndex
    stabilizer_size: int
    orbit_size: int


def orbit_stats(k, pattern: InvariancePattern) -> OrbitStats:
    """Canonical representative plus exact stabilizer and orbit cardinalities.

    The stabilizer size is the product over groups of the factorials of the
    value multiplicities inside the group; orbit size follows by dividing
    the group order.
    """
    key = validate_multi_index(k, pattern.dim)
    stab = math.prod(
        math.factorial(c) for g in pattern.groups for c in Counter(key[i - 1] for i in g).values()
    )
    return OrbitStats(canonicalize(key, pattern), stab, group_order(pattern) // stab)


def _distinct_arrangements(values: Sequence[int]) -> list[tuple[int, ...]]:
    """All distinct arrangements of a multiset, in lexicographic order.

    Next-permutation steps (Knuth, TAOCP 7.2.1.2, Algorithm L).
    """
    a = sorted(values)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]
        out.append(tuple(a))


def orbit(k, pattern: InvariancePattern) -> Iterator[MultiIndex]:
    """Iterate the orbit of ``k``: all within-group rearrangements.

    Cost is proportional to the orbit size (distinct arrangements only),
    never to the group order.  Deterministic order: arrangements advance
    lexicographically, later groups fastest.
    """
    key = validate_multi_index(k, pattern.dim)
    groups = pattern.groups
    per_group = [_distinct_arrangements([key[i - 1] for i in g]) for g in groups]
    current = list(key)
    for arrangements in product(*per_group):
        for g, arrangement in zip(groups, arrangements):
            for i, v in zip(g, arrangement):
                current[i - 1] = v
        yield tuple(current)


def critical_node_count(pattern: InvariancePattern) -> int:
    """Exact count of canonical 0/1 vectors under the pattern.

    Equals ``prod_r (size_r + 1) * 2**(d - sum_r size_r)``: one choice of
    ones-count per group, free coordinates binary.  Any cubature rule with
    fewer nodes cannot improve on the zero algorithm, and the folded
    rectangle rule shows this many suffice to do better.
    """
    free = 1 << (pattern.dim - pattern.invariant_count)
    return math.prod((len(g) + 1 for g in pattern.groups), start=free)


def canonical_binary_vectors(
    pattern: InvariancePattern, stop=None, cap=DEFAULT_ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``stop`` (default: all) canonical 0/1 vectors, lexicographically.

    Returns a ``uint8`` array of shape ``(n, d)`` and each vector's
    ones-count per block, shape ``(n, len(groups))``.  The vectors grow one
    coordinate at a time: a free coordinate splits every row into a 0 row
    and a 1 row; a block member splits only rows whose block has no 1 yet
    (zeros precede ones in a canonical block) and appends 1 to the rest.
    Children keep their parents' order, so cutting every level to ``n``
    rows keeps the lexicographic prefix.  ``cap`` bounds ``n`` when set.
    """
    count = critical_node_count(pattern)
    if stop is not None:
        count = min(count, max(0, int(stop)))
    if cap is not None and count > cap:
        raise CapExceededError(f"enumeration of {count} representatives exceeds cap {cap}")
    group_of = {i: gi for gi, g in enumerate(pattern.groups) for i in g}
    vectors = np.zeros((1, 0), dtype=np.uint8)
    ones = np.zeros((1, len(pattern.groups)), dtype=np.intp)
    for gi in (group_of.get(i, -1) for i in range(1, pattern.dim + 1)):
        split = ones[:, gi] == 0 if gi >= 0 else np.ones(len(vectors), dtype=bool)
        parent = np.repeat(np.arange(len(vectors)), np.where(split, 2, 1))[:count]
        # a split row's first child takes 0, every other child takes 1
        first = np.ones(len(parent), dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        bit = (~(split[parent] & first)).astype(np.uint8)
        vectors = np.concatenate([vectors[parent], bit[:, None]], axis=1)
        ones = ones[parent]
        if gi >= 0:
            ones[:, gi] += bit
    return vectors, ones


def binary_orbit_sizes(pattern: InvariancePattern, ones) -> np.ndarray:
    """Exact orbit sizes of 0/1 vectors from their per-block ones-counts.

    ``j_r`` ones in block ``r`` of size ``g_r`` give ``prod_r C(g_r, j_r)``,
    read from a table over the ones-count combinations; the result is an
    object array of Python ints, exact for any block size.
    """
    blocks = [len(g) for g in pattern.groups]
    combos = product(*(range(g + 1) for g in blocks))
    table = [math.prod(map(math.comb, blocks, js)) for js in combos]
    code = np.zeros(len(ones), dtype=np.intp)
    for r, g in enumerate(blocks):
        code = code * (g + 1) + ones[:, r]
    return np.array(table, dtype=object)[code]


def binary_orbit_members(pattern: InvariancePattern, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Every orbit member of each 0/1 vector, each orbit in ``orbit()`` order.

    Returns the members, one row each and grouped by vector in input order,
    and the index of the vector each member belongs to.  A block with ``j``
    ones runs through the lexicographic arrangements of ``j`` ones, later
    blocks fastest.
    """
    members = np.asarray(vectors)
    owner = np.arange(len(members))
    for g in pattern.groups:
        cols = [i - 1 for i in g]
        ones = members[:, cols].sum(axis=1).tolist()
        arranged = {j: np.array(_distinct_arrangements([0] * (len(g) - j) + [1] * j))
                    for j in set(ones)}
        counts = [len(arranged[j]) for j in ones]
        owner = np.repeat(owner, counts)
        members = np.repeat(members, counts, axis=0)
        members[:, cols] = np.concatenate([arranged[j] for j in ones])
    return members, owner


def binary_orbit_representatives(
    pattern: InvariancePattern, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> Iterator[MultiIndex]:
    """Stream the canonical 0/1 vectors in lexicographic order, as tuples.

    Built from ``canonical_binary_vectors`` prefixes of doubling length, so
    ``cap=None`` streams enumerations too large to hold.  A ``cap`` (when
    not None) rejects patterns whose full enumeration would exceed it.
    """
    count = critical_node_count(pattern)
    if cap is not None and count > cap:
        raise CapExceededError(f"enumeration of {count} representatives exceeds cap {cap}")
    done, stop = 0, 1024
    while done < count:
        vectors, _ = canonical_binary_vectors(pattern, stop, cap=None)
        yield from map(tuple, vectors[done:].tolist())
        done, stop = len(vectors), 2 * stop


def symmetrize(f: FourierPolynomial, pattern: InvariancePattern) -> FourierPolynomial:
    """Project onto the invariant polynomials by orbit averaging.

    The coefficient of every frequency in an orbit becomes the plain average
    of the input coefficients over that orbit.  Work is proportional to the
    support size times the orbit sizes met, never to the group order.  The
    coefficient at frequency zero is a fixed point, so the integral is
    preserved exactly.
    """
    if f.dim != pattern.dim:
        raise DimensionMismatchError("polynomial and pattern dimensions differ")
    buckets: dict[MultiIndex, complex] = {}
    for k, c in f.terms.items():
        canon = canonicalize(k, pattern)
        buckets[canon] = buckets.get(canon, 0j) + c
    out: dict[MultiIndex, complex] = {}
    for canon in sorted(buckets):
        avg = buckets[canon] / orbit_stats(canon, pattern).orbit_size
        if avg == 0:
            continue
        for member in orbit(canon, pattern):
            out[member] = avg
    return FourierPolynomial(f.dim, out)


def is_invariant(f: FourierPolynomial, pattern: InvariancePattern, tol=0.0) -> bool:
    """Whether every coefficient matches the one at its canonical frequency.

    Equivalent to invariance of the function itself: a polynomial is
    unchanged under the pattern's coordinate permutations exactly when its
    coefficient map is constant on orbits.
    """
    if f.dim != pattern.dim:
        raise DimensionMismatchError("polynomial and pattern dimensions differ")
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    for k, c in f.terms.items():
        if abs(c - f.coefficient(canonicalize(k, pattern))) > tol:
            return False
    return True
