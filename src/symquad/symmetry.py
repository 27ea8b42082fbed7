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
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapExceededError, DimensionMismatchError
from .fourier import FourierPolynomial, MultiIndex, _collect, _distinct_rows, validate_multi_index
from .fourier import reading, reject_bools_and_strings, require_dimension, require_integral

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
        dim = require_dimension(dim)
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
        with reading("pattern JSON"):
            dim, groups = data["dim"], [tuple(g) for g in data.get("groups", [])]
            reject_bools_and_strings([dim, *(i for g in groups for i in g)], "pattern JSON")
            return cls(dim, groups)


def parse_coordinate_set(spec: str) -> tuple[int, ...]:
    """Parse ``"1-3,5"`` into the coordinate tuple ``(1, 2, 3, 5)``."""
    members: list[int] = []
    for part in filter(None, map(str.strip, spec.split(","))):
        bounds = re.fullmatch(r"(\d+)(?:\s*-\s*(\d+))?", part)
        if bounds is None:
            raise ValueError(f"bad coordinate {'range ' if '-' in part else ''}{part!r}")
        lo, hi = int(bounds[1]), int(bounds[2] or bounds[1])
        if hi < lo:
            raise ValueError(f"bad coordinate range {part!r}")
        members.extend(range(lo, hi + 1))
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


def canonical_rows(pattern: InvariancePattern, vectors) -> np.ndarray:
    """Canonical orbit representatives of integer rows, as ``int64`` rows.

    Each block's columns are sorted ascending: the lexicographically
    smallest element of the orbit.  Coordinates outside all groups stay.
    """
    rows = np.array(vectors, dtype=np.int64)
    for cols in ([i - 1 for i in g] for g in pattern.groups):
        rows[:, cols] = np.sort(rows[:, cols], axis=1)
    return rows


def canonicalize(k, pattern: InvariancePattern) -> MultiIndex:
    """Canonical orbit representative of one vector: ``canonical_rows`` of it.  Idempotent."""
    key = validate_multi_index(k, pattern.dim)
    return tuple(canonical_rows(pattern, [key])[0].tolist())


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
    return OrbitStats(tuple(canonical_rows(pattern, [key])[0].tolist()), stab, group_order(pattern) // stab)


def _distinct_arrangements(multisets) -> tuple[np.ndarray, np.ndarray]:
    """Distinct arrangements of each sorted row, lexicographically, and the row of each.

    Built one position at a time: every partial arrangement takes each
    distinct value it has left, smallest first.
    """
    left, row = multisets, np.arange(len(multisets))
    out = multisets[:, :0]
    for width in range(multisets.shape[1], 0, -1):
        first = np.ones(left.shape, dtype=bool)  # first of a run of equal values left
        first[:, 1:] = left[:, 1:] != left[:, :-1]
        parent, col = np.nonzero(first)
        out = np.column_stack([out[parent], left[parent, col]])
        left = left[parent][np.arange(width) != col[:, None]].reshape(len(parent), width - 1)
        row = row[parent]
    return out, row


def orbit(k, pattern: InvariancePattern) -> Iterator[MultiIndex]:
    """Iterate the orbit of ``k``: all within-group rearrangements.

    Cost is proportional to the orbit size, never to the group order;
    arrangements advance lexicographically, later groups fastest.
    """
    key = validate_multi_index(k, pattern.dim)
    yield from map(tuple, orbit_members(pattern, [key])[0].tolist())


def critical_node_count(pattern: InvariancePattern) -> int:
    """Exact count of canonical 0/1 vectors under the pattern.

    Equals ``prod_r (size_r + 1) * 2**(d - sum_r size_r)``: one choice of
    ones-count per group, free coordinates binary.  Any cubature rule with
    fewer nodes cannot improve on the zero algorithm, and the folded
    rectangle rule shows this many suffice to do better.
    """
    free = 1 << (pattern.dim - pattern.invariant_count)
    return math.prod((len(g) + 1 for g in pattern.groups), start=free)


def _enumeration_count(pattern: InvariancePattern, stop, cap) -> int:
    """The number of canonical 0/1 vectors, or ``stop`` when fewer, refused beyond ``cap`` when set."""
    count = critical_node_count(pattern)
    if stop is not None:
        count = min(count, max(0, require_integral(stop, "stop")))
    if cap is not None and count > cap:  # Python writes no int of over 4,300 digits; 2^10000 has 3,011
        text = count if count.bit_length() <= 10_000 else f"at least 2^{count.bit_length() - 1}"
        raise CapExceededError(f"enumeration of {text} representatives exceeds cap {cap}")
    return count


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
    count = _enumeration_count(pattern, stop, cap)
    group_of = {i: gi for gi, g in enumerate(pattern.groups) for i in g}
    vectors = np.zeros((1, pattern.dim), dtype=np.uint8)  # column c is set at level c
    ones = np.zeros((1, len(pattern.groups)), dtype=np.intp)
    for c, gi in enumerate(group_of.get(i, -1) for i in range(1, pattern.dim + 1)):
        split = ones[:, gi] == 0 if gi >= 0 else np.ones(len(vectors), dtype=bool)
        children = 1 + split.view(np.uint8)
        vectors, ones = np.repeat(vectors, children, axis=0)[:count], np.repeat(ones, children, axis=0)[:count]
        # a split row's first child takes 0, every other child takes 1
        first = (np.cumsum(children) - children)[split]
        vectors[:, c] = 1
        vectors[first[first < count], c] = 0
        if gi >= 0:
            ones[:, gi] += vectors[:, c]
    return vectors, ones


def _binary_orbit_size_classes(pattern: InvariancePattern, ones) -> tuple[np.ndarray, np.ndarray]:
    """The distinct exact orbit sizes of 0/1 vectors, ascending, and each vector's index among them.

    ``j_r`` ones in block ``r`` of size ``g_r`` give ``prod_r C(g_r, j_r)``,
    read from a table over the ones-count combinations: Python ints, exact.
    """
    table, code = np.ones(1, dtype=object), np.zeros(len(ones), dtype=np.intp)
    for r, g in enumerate(len(g) for g in pattern.groups):
        combs = np.array([math.comb(g, j) for j in range(g + 1)], dtype=object)
        table, code = np.multiply.outer(table, combs).ravel(), code * (g + 1) + ones[:, r]
    sizes, slot = _distinct_rows(table[:, None])
    return sizes.ravel(), slot[code]


def binary_orbit_sizes(pattern: InvariancePattern, ones) -> np.ndarray:
    """Exact orbit sizes (Python ints) of 0/1 vectors from their per-block ones-counts."""
    sizes, index = _binary_orbit_size_classes(pattern, ones)
    return sizes[index]


def orbit_members(pattern: InvariancePattern, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Every orbit member of each integer row, each orbit in ``orbit()`` order.

    Returns the ``int64`` members, grouped by row in input order, and the
    row each belongs to.  A block runs through the lexicographic arrangements
    of its entries, later blocks fastest, from one table per distinct multiset.
    """
    members = np.asarray(vectors, dtype=np.int64)
    owner = np.arange(len(members))
    for cols in ([i - 1 for i in g] for g in pattern.groups):
        multisets, which = _distinct_rows(np.sort(members[:, cols], axis=1))
        tables, table_of = _distinct_arrangements(multisets)
        sizes = np.bincount(table_of, minlength=len(multisets))
        counts = sizes[which]
        # member j of a row takes row j of its multiset's slice of the tables
        offset = np.repeat((np.cumsum(sizes) - sizes)[which] - (np.cumsum(counts) - counts), counts)
        owner = np.repeat(owner, counts)
        members = np.repeat(members, counts, axis=0)
        members[:, cols] = tables[offset + np.arange(len(members))]
    return members, owner


binary_orbit_members = orbit_members


def binary_orbit_representatives(
    pattern: InvariancePattern, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> Iterator[MultiIndex]:
    """Stream the canonical 0/1 vectors in lexicographic order, as tuples.

    Built from ``canonical_binary_vectors`` prefixes of doubling length, so
    ``cap=None`` streams enumerations too large to hold.  A ``cap`` (when
    not None) rejects patterns whose full enumeration would exceed it.
    """
    count = _enumeration_count(pattern, None, cap)
    done, stop = 0, 1024
    while done < count:
        vectors, _ = canonical_binary_vectors(pattern, stop, cap=None)
        yield from map(tuple, vectors[done:].tolist())
        done, stop = len(vectors), 2 * stop


def symmetrize(f: FourierPolynomial, pattern: InvariancePattern) -> FourierPolynomial:
    """Project onto the invariant polynomials by orbit averaging.

    Every coefficient in an orbit becomes the orbit's average: the sum of
    its input coefficients in key order, divided part by part by the orbit
    size.  Work is proportional to the support size times the orbit sizes
    met, never to the group order.  The integral is preserved exactly.
    """
    if f.dim != pattern.dim:
        raise DimensionMismatchError("polynomial and pattern dimensions differ")
    canon, bucket = _distinct_rows(canonical_rows(pattern, f.keys))
    members, owner = orbit_members(pattern, canon)
    sizes = np.bincount(owner)
    avg = np.empty(len(canon), dtype=np.complex128)  # bincount adds in array order from +0.0
    avg.real = np.bincount(bucket, f.coeffs.real) / sizes
    avg.imag = np.bincount(bucket, f.coeffs.imag) / sizes
    return _collect(f.dim, members, avg[owner])  # the members are distinct: one value each


def is_invariant(f: FourierPolynomial, pattern: InvariancePattern, tol=0.0) -> bool:
    """Whether every coefficient matches the one at its canonical frequency.

    Equivalent to invariance of the function itself: a polynomial is
    unchanged under the pattern's coordinate permutations exactly when its
    coefficient map is constant on orbits.
    """
    if f.dim != pattern.dim:
        raise DimensionMismatchError("polynomial and pattern dimensions differ")
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
    rows, index = _distinct_rows(np.concatenate([canonical_rows(pattern, f.keys), f.keys]))
    table = np.zeros(len(rows), dtype=np.complex128)  # a canonical key outside the support is 0j
    table[index[len(f) :]] = f.coeffs
    return not (np.abs(f.coeffs - table[index[: len(f)]]) > tol).any()
