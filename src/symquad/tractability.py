"""Finite-scale screening of tractability necessary conditions.

The node-count lower bound ``(invariant_count + 1) * 2**free_count`` rules
out whole growth classes of the information complexity when the number of
free (non-interchangeable) coordinates grows too fast with the dimension.
Given sampled pairs ``(d, invariant_count)`` this module evaluates the
corresponding predicates on the samples and reports, per tractability
notion, whether the necessary condition is violated *at the sampled
scale*.  No limit claims are made: a verdict of ``consistent-at-scale``
means the samples do not witness a violation, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .fourier import reading, reject_bools_and_strings, require_integral
from .symmetry import InvariancePattern, critical_node_count

VERDICT_EXCLUDED = "excluded-at-scale"
VERDICT_CONSISTENT = "consistent-at-scale"
VERDICT_NOT_EVALUABLE = "not-evaluable"

#: Reference accuracy for the log-ratio diagnostics; the node-count lower
#: bound is constant on (0, 1), so any fixed choice is equivalent.
REFERENCE_EPSILON = 0.5

#: Largest sample dimension a profile JSON may hold: the node counts, at
#: most ``2^d``, are written as decimal text, and ``2^10000`` has 3,011
#: digits, within Python's default limit of 4,300 for int-to-text.
MAX_PROFILE_DIMENSION = 10_000


def node_count_lower_bound(epsilon, pattern: InvariancePattern) -> int:
    """Minimal node count forced at accuracy ``epsilon``.

    For ``epsilon`` in (0, 1) the answer is the critical node count,
    independently of ``epsilon``; at ``epsilon >= 1`` the zero rule already
    achieves the initial error, so 0 nodes suffice.
    """
    eps = float(epsilon)
    if not eps > 0:
        raise ValueError("accuracy must be positive")
    if eps >= 1.0:
        return 0
    return critical_node_count(pattern)


@dataclass(frozen=True)
class InvarianceProfile:
    """Sampled ``(dimension, invariant_count)`` pairs, ``d`` increasing."""

    samples: tuple[tuple[int, int], ...]
    tag: str | None = None

    def __init__(self, samples, tag=None):
        rows = tuple(
            (require_integral(d, "sample dimension"), require_integral(i, "invariant count"))
            for d, i in samples
        )
        rows = tuple(sorted(rows))
        last = 0
        for d, i in rows:
            if d <= last:
                raise ValueError("sample dimensions must be strictly increasing")
            if not 0 <= i <= d:
                raise ValueError(f"invariant count {i} outside 0..{d}")
            last = d
        object.__setattr__(self, "samples", rows)
        object.__setattr__(self, "tag", tag)

    @classmethod
    def from_json_dict(cls, data) -> "InvarianceProfile":
        with reading("profile JSON"):
            rows = [(row[0], row[1]) for row in data["samples"]]
            reject_bools_and_strings(chain.from_iterable(rows), "profile JSON")
            profile = cls(rows, data.get("tag"))
        for row in rows:  # integral numbers now
            if row[0] > MAX_PROFILE_DIMENSION:
                raise ValueError(f"profile JSON sample {list(row)} has dimension above {MAX_PROFILE_DIMENSION}")
        return profile

    def to_json_dict(self) -> dict:
        out = {"samples": [list(row) for row in self.samples]}
        if self.tag is not None:
            out["tag"] = self.tag
        return out


@dataclass(frozen=True)
class TractabilityReport:
    """Per-sample exact bounds plus per-notion verdicts.

    ``node_counts`` are exact integers; ``log_ratios`` maps each requested
    ``(s, t)`` pair to the per-sample values ``ln(count) / (eps**-s + d**t)``
    at the reference accuracy.  Verdict keys: ``strong_polynomial``,
    ``polynomial``, ``curse``, and one ``st_weak[(s, t)]`` entry per grid
    pair.  For ``curse`` the verdict reads the other way around:
    ``consistent-at-scale`` means the samples do indicate exponential
    growth (the sufficient condition holds on the tail).
    """

    profile: InvarianceProfile
    node_counts: tuple[int, ...]
    free_counts: tuple[int, ...]
    log_ratios: dict[tuple[float, float], tuple[float, ...]]
    verdicts: dict[str, str]
    st_weak: dict[tuple[float, float], str]
    notes: tuple[str, ...]


def _tail_split(values):
    n = len(values)
    t = math.ceil(n / 2)
    return values[: n - t], values[n - t :]


def _strictly_increasing(seq):
    return all(b > a for a, b in zip(seq, seq[1:]))


def _non_increasing(seq, slack=1e-12):
    return all(b <= a + slack for a, b in zip(seq, seq[1:]))


def evaluate_profile(profile: InvarianceProfile, st_grid=((1.0, 1.0),)) -> TractabilityReport:
    """Screen the tractability predicates on a sampled invariance profile.

    Sample heuristics (all on the last ``ceil(n/2)`` samples, the "tail"):

    * strong polynomial: excluded once the node counts still grow through
      the tail (they always do, since the bound is at least ``d + 1``);
    * polynomial: needs ``free_count = O(ln d)``; excluded when the ratios
      ``free_count / ln d`` grow strictly through the tail to a new
      maximum;
    * ``(s, t)``-weak: needs the log-ratios to decay; excluded when they
      fail to be non-increasing over the tail;
    * curse: indicated (``consistent-at-scale``) when ``free_count / d``
      stays positive on the tail and does not drop below half its head
      minimum.

    Fewer than 3 samples make every verdict ``not-evaluable``.
    """
    grid = tuple((float(s), float(t)) for s, t in st_grid)
    for s, t in grid:
        if not (0 < s <= 1 and 0 < t <= 1):
            raise ValueError(f"(s, t) must lie in (0, 1]^2, got {(s, t)}")

    dims = [d for d, _ in profile.samples]
    counts = tuple(
        critical_node_count(InvariancePattern.single(d, range(1, i + 1)))
        for d, i in profile.samples
    )
    free = tuple(d - i for d, i in profile.samples)
    log_ratios = {
        (s, t): tuple(
            math.log(c) / (REFERENCE_EPSILON ** -s + d ** t) for c, d in zip(counts, dims)
        )
        for s, t in grid
    }

    notes: list[str] = []
    if len(profile.samples) < 3:
        strong = polynomial = curse = VERDICT_NOT_EVALUABLE
        st_weak = {pair: VERDICT_NOT_EVALUABLE for pair in grid}
        notes.append("need at least 3 samples")
    else:
        head_c, tail_c = _tail_split(counts)
        grows = max(tail_c) > max(head_c)
        strong = VERDICT_EXCLUDED if grows else VERDICT_CONSISTENT
        if strong == VERDICT_EXCLUDED:
            notes.append(
                "node lower bound grows with d on the samples, so no d-free bound exists"
            )

        log_rows = [(b / math.log(d)) for (d, b) in zip(dims, free) if d >= 2]
        if len(log_rows) >= 3:
            head_r, tail_r = _tail_split(log_rows)
            growing = _strictly_increasing(tail_r) and max(tail_r) > max(head_r) + 1e-12
            polynomial = VERDICT_EXCLUDED if growing else VERDICT_CONSISTENT
        else:
            polynomial = VERDICT_NOT_EVALUABLE
            notes.append("polynomial check needs at least 3 samples with d >= 2")

        st_weak = {}
        for pair in grid:
            _, tail_y = _tail_split(log_ratios[pair])
            st_weak[pair] = (
                VERDICT_CONSISTENT if _non_increasing(tail_y) else VERDICT_EXCLUDED
            )

        curse_rows = [b / d for d, b in zip(dims, free)]
        head_k, tail_k = _tail_split(curse_rows)
        floor = 0.5 * min(head_k)
        indicated = min(tail_k) > 0 and min(tail_k) >= floor
        curse = VERDICT_CONSISTENT if indicated else VERDICT_EXCLUDED

    verdicts = {"strong_polynomial": strong, "polynomial": polynomial, "curse": curse}
    return TractabilityReport(profile, counts, free, log_ratios, verdicts, st_weak, tuple(notes))
