"""Sparse trigonometric polynomials with exact integer frequencies.

A polynomial represents ``x -> sum_k c_k exp(2*pi*i*k.x)`` on ``[0,1)^d``
and is stored as two read-only arrays: ``keys``, the ``int64`` frequency
vectors ``k`` (shape ``(t, d)``), and ``coeffs``, their ``complex128``
coefficients (shape ``(t,)``).  The keys are distinct, in lexicographic
order and at most ``2^31 - 1`` in magnitude; the coefficients are finite
and nonzero.  So the form is canonical, and every reduction over the terms
has a fixed, reproducible summation order.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left
from contextlib import contextmanager
from itertools import chain
from typing import Mapping

import numpy as np

from .errors import DimensionMismatchError

MultiIndex = tuple[int, ...]

#: Largest allowed |k_m|; keeps frequency vectors interchangeable with
#: 32-bit consumers of the JSON form.
MAX_INDEX_MAGNITUDE = 2**31 - 1

_OVER_CAP = f"a frequency vector exceeds magnitude cap {MAX_INDEX_MAGNITUDE}"


def validate_multi_index(k, dim=None) -> MultiIndex:
    """Coerce ``k`` to a tuple of ints and check dimension and magnitude.

    Entries must be integral (``2.0`` is accepted, ``1.7``, NaN and
    infinities are not); anything else raises ``ValueError``.
    """
    raw = tuple(k)
    return tuple(_checked_keys([raw], require_dimension(len(raw)) if dim is None else dim)[0].tolist())


def _checked_keys(keys, dim) -> np.ndarray:
    """``keys`` (a list of vectors) as ``int64`` rows, each of length ``dim``, integral and within the cap."""
    wrong = set(map(len, keys)) - {dim}
    if wrong:
        raise DimensionMismatchError(f"frequency vector has dimension {min(wrong)}, expected {dim}")
    flat = list(chain.from_iterable(keys))
    try:
        raw = np.array(flat)
    except ValueError:  # an array entry that numpy cannot stack with the rest
        raise ValueError("a frequency vector has a non-integer entry") from None
    if raw.shape != (len(flat),):  # sequence entries, which numpy reads as rows of their own
        raise ValueError("a frequency vector has a non-integer entry")
    if raw.dtype.kind not in "biu":  # each entry must equal its int(); ints beyond int64 land here too
        raw = np.frompyfunc(lambda v: require_integral(v, "frequency entry"), 1, 1)(np.array(flat, dtype=object))
    if (raw > MAX_INDEX_MAGNITUDE).any() or (raw < -MAX_INDEX_MAGNITUDE).any():
        raise ValueError(_OVER_CAP)
    return raw.astype(np.int64).reshape(len(keys), dim)


def require_integral(value, what) -> int:
    """``int(value)``, refusing a value it would change (``2.0`` passes, ``1.9`` does not)."""
    try:
        out = int(value)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} {value!r} is not an integer") from exc
    if out != value:
        raise ValueError(f"{what} {value!r} is not integral")
    return out


def require_dimension(dim) -> int:
    """``dim`` as an ``int``, refusing a value that is not integral or is below 1."""
    dim = require_integral(dim, "dimension")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return dim


def require_positive(value, what) -> float:
    """``float(value)``, refusing zero, negatives, NaN and the infinities."""
    out = float(value)
    if not 0 < out < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {out!r}")
    return out


def reject_bools_and_strings(values, what) -> set:
    """Refuse JSON ``true``/``false`` and strings where numbers belong (``float("1")`` is 1.0); return the types."""
    kinds = set(map(type, values))
    if {bool, str} & kinds:
        raise ValueError(f"{what} holds a boolean or a string where a number belongs")
    return kinds


def reject_nulls_and_lists(kinds, what):
    """Refuse ``null`` and lists among ``kinds`` where a real belongs: numpy reads ``null`` as NaN, ``[x]`` as ``x``."""
    if {type(None), list} & kinds:
        raise ValueError(f"{what} holds {'null' if type(None) in kinds else 'a list'} where a number belongs")


@contextmanager
def reading(schema):
    """Turn the ``TypeError``, ``KeyError`` or ``IndexError`` of malformed ``schema`` data into a ``ValueError``."""
    try:
        yield
    except (TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed {schema}: {exc!r}") from exc


class FourierPolynomial:
    """Finitely supported Fourier series ``sum_k c_k exp(2*pi*i*k.x)``.

    Parameters
    ----------
    dim : int
        Coordinate dimension ``d >= 1``.
    terms : mapping or iterable of pairs
        Frequency vector -> complex coefficient.  Zero coefficients are
        dropped; duplicate keys and non-finite coefficients are rejected.

    Attributes
    ----------
    keys : numpy.ndarray, int64, shape (t, d)
        The frequency vectors: distinct, lexicographically increasing, each
        entry at most ``2^31 - 1`` in magnitude.  Read-only.
    coeffs : numpy.ndarray, complex128, shape (t,)
        Their coefficients, finite and nonzero.  Read-only.
    """

    __slots__ = ("_dim", "_keys", "_coeffs")

    def __init__(self, dim, terms=()):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        keys, coeffs = tuple(zip(*pairs, strict=True)) or ((), ())
        coeffs = np.fromiter(map(complex, coeffs), np.complex128, len(coeffs))
        dim = require_dimension(dim)
        rows, slot = _distinct_rows(_checked_keys(list(map(tuple, keys)), dim))
        if len(rows) < len(slot):  # name the smallest duplicated key
            raise ValueError(f"duplicate frequency vector {tuple(rows[np.argmax(np.bincount(slot) > 1)].tolist())}")
        _from_sorted(dim, rows, coeffs[np.argsort(slot)], self)

    dim = property(lambda self: self._dim)
    keys = property(lambda self: self._keys)
    coeffs = property(lambda self: self._coeffs)

    @property
    def terms(self) -> dict[MultiIndex, complex]:
        """The term map, in lexicographic key order (built on each call)."""
        return dict(zip(self.support(), self._coeffs.tolist()))

    def support(self) -> tuple[MultiIndex, ...]:
        """Frequency vectors with nonzero coefficient, lexicographically."""
        return tuple(map(tuple, self._keys.tolist()))

    def coefficient(self, k) -> complex:
        """Coefficient at ``k`` (zero when ``k`` is outside the support), by bisection of the keys."""
        key = validate_multi_index(k, self._dim)
        i = bisect_left(self._keys, key, key=lambda row: tuple(row.tolist()))
        return self._coeffs[i].item() if i < len(self) and tuple(self._keys[i].tolist()) == key else 0j

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, FourierPolynomial):
            return NotImplemented
        same_keys = self._dim == other._dim and np.array_equal(self._keys, other._keys)
        return same_keys and np.array_equal(self._coeffs, other._coeffs)

    def __hash__(self):  # + 0 turns each -0.0 part into 0.0, which compares equal to it
        return hash((self._dim, self._keys.tobytes(), (self._coeffs + 0).tobytes()))

    def __repr__(self):
        return f"FourierPolynomial(dim={self._dim}, n_terms={len(self)})"

    def __call__(self, x) -> complex:
        """Evaluate at a point of ``[0,1)^d``.

        Terms are summed in lexicographic key order, so repeated calls give
        bit-identical results.
        """
        point = tuple(float(v) for v in x)
        if len(point) != self._dim:
            raise DimensionMismatchError(
                f"point has dimension {len(point)}, expected {self._dim}"
            )
        acc = 0j
        for k, c in zip(self._keys.tolist(), self._coeffs.tolist()):
            phase = 0.0
            for km, xm in zip(k, point):
                phase += km * xm
            phase -= math.floor(phase)
            acc += c * cmath.exp(2j * cmath.pi * phase)
        return acc

    def integral(self) -> complex:
        """Integral over the unit cube: the coefficient at frequency zero."""
        return self.coefficient((0,) * self._dim)

    def __add__(self, other):
        if not isinstance(other, FourierPolynomial):
            return NotImplemented
        if other._dim != self._dim:
            raise DimensionMismatchError("cannot add polynomials of different dimension")
        keys = np.concatenate([self._keys, other._keys])
        return _collect(self._dim, keys, np.concatenate([self._coeffs, other._coeffs]))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, FourierPolynomial):
            if other._dim != self._dim:
                raise DimensionMismatchError("cannot multiply polynomials of different dimension")
            keys = (self._keys[:, None] + other._keys[None, :]).reshape(-1, self._dim)
            return _collect(self._dim, keys, _product(self._coeffs[:, None], other._coeffs).ravel())
        return _from_sorted(self._dim, self._keys, _product(complex(other), self._coeffs))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        parts = zip(self._keys.tolist(), self._coeffs.real.tolist(), self._coeffs.imag.tolist())
        return self._json_dict([{"k": k, "re": re, "im": im} for k, re, im in parts])

    def _json_dict(self, terms) -> dict:  # ``cli`` passes the JSON text of ``terms``
        return {"dim": self._dim, "terms": terms}

    @classmethod
    def from_json_dict(cls, data) -> "FourierPolynomial":
        with reading("polynomial JSON"):
            terms = data["terms"]
            keys, re, im = ([entry[name] for entry in terms] for name in ("k", "re", "im"))
            reject_bools_and_strings([data["dim"]], "polynomial JSON")
            kinds = reject_bools_and_strings(chain(re, im), "polynomial JSON")
            coeffs = np.empty(len(keys), dtype=np.complex128)
            coeffs.real, coeffs.imag = re, im
            reject_nulls_and_lists(kinds, "polynomial JSON")  # numpy refused other lists itself
            dim = require_dimension(data["dim"])  # before the keys, so a bad dim is named first
            reject_bools_and_strings(chain.from_iterable(keys), "polynomial JSON")
            return cls(dim, zip(keys, coeffs.tolist()))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "FourierPolynomial":
        return cls.from_json_dict(json.loads(text))


def _from_sorted(dim, keys, coeffs, out=None) -> FourierPolynomial:
    """``out`` (else a new polynomial) holding checked, sorted, distinct ``int64`` keys; zero terms dropped."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise ValueError(f"coefficient {coeffs[bad[0]].item()!r} at {tuple(keys[bad[0]].tolist())} is not finite")
    keep = coeffs != 0
    out = FourierPolynomial.__new__(FourierPolynomial) if out is None else out
    out._dim, out._keys, out._coeffs = dim, keys[keep], coeffs[keep]
    out._keys.flags.writeable = out._coeffs.flags.writeable = False
    return out


def _collect(dim, keys, coeffs) -> FourierPolynomial:
    """Polynomial summing ``coeffs`` over equal integer ``keys``: from 0, in array order (``np.bincount``)."""
    if (np.abs(keys) > MAX_INDEX_MAGNITUDE).any():
        raise ValueError(_OVER_CAP)
    rows, slot = _distinct_rows(keys)
    sums = np.bincount(slot, coeffs.real, len(rows)) + 1j * np.bincount(slot, coeffs.imag, len(rows))
    return _from_sorted(dim, rows, sums)


def _product(a, b) -> np.ndarray:
    """``a * b`` in Python's complex arithmetic (numpy's complex multiply may round differently)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


#: Table entries the two halves may cost per exponential they save.  An
#: exponential takes about 55 ns and a zgemm complex multiply-add about 0.1 ns
#: (2-core x86-64, OpenBLAS), but small tables run zgemm far below its peak:
#: halves won until the table reached 100 (a = b = 26) to 400 (a = b = 118)
#: entries per exponential saved.
_TABLE_ENTRIES_PER_EXP = 64

#: Most entries (16 MB) of the dense coefficient table of ``evaluate_at_points``.
_TABLE_LIMIT = 1 << 20


def evaluate_at_points(f: FourierPolynomial, points) -> np.ndarray:
    """Evaluate ``f`` at many points at once.

    Parameters
    ----------
    f : FourierPolynomial
    points : array_like, shape (n, d)

    Returns
    -------
    numpy.ndarray, shape (n,), complex
        Vectorized evaluation.  A key ``k = (l, u)`` splits at
        ``s = ceil(d/2)`` and its character is ``exp(2*pi*i*l.t[:s]) *
        exp(2*pi*i*u.t[s:])``, one exponential per node and distinct half;
        with the coefficients in a dense table ``C[l, u]`` the values are the
        row sums of ``E_lo * (E_hi @ C.T)``.  Keys whose halves are too
        diverse for a small table are evaluated as one half (``s = 0``),
        one exponential per node and term.  Each computed exponential has a
        relative error of about ``2u`` (``u = 2^-53``) and the complex product
        adds at most ``sqrt(5) u``, so a character made of two halves is off
        by at most about ``7u``, ``8e-16``.  With the per-term sums
        reassociated relative to ``f(x)``, results differ from it by at most
        about ``1e-12 * sum_k |c_k|``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != f.dim:
        raise DimensionMismatchError(f"points must have shape (n, {f.dim})")
    n = pts.shape[0]
    if n == 0 or len(f) == 0:
        return np.zeros(n, dtype=np.complex128)
    keys, coeffs = f.keys, f.coeffs  # (t, d), (t,)
    n_terms, s = len(keys), (f.dim + 1) // 2
    lo, lo_of = _distinct_rows(keys[:, :s])  # integer rows group fastest
    hi, hi_of = _distinct_rows(keys[:, s:])
    saved = n_terms - len(lo) - len(hi)  # exponentials per node the halves save
    if len(lo) * len(hi) > min(_TABLE_LIMIT, _TABLE_ENTRIES_PER_EXP * saved):
        s, lo, lo_of = 0, keys[:1, :0], np.zeros(n_terms, dtype=np.intp)
        hi, hi_of = keys, np.arange(n_terms)
    lo, hi = lo.astype(np.float64), hi.astype(np.float64)  # |k_m| < 2^31: exact
    table = np.zeros((len(hi), len(lo)), dtype=np.complex128)
    table[hi_of, lo_of] = coeffs
    out = np.empty(n, dtype=np.complex128)
    # Chunk the nodes to bound the (nodes x halves) tables.
    chunk = max(1, (1 << 22) // (len(lo) + len(hi)))
    for start in range(0, n, chunk):
        rows = pts[start : start + chunk]
        partial = exp_2pi_i(rows[:, s:] @ hi.T) @ table
        out[start : start + chunk] = np.einsum("ij,ij->i", exp_2pi_i(rows[:, :s] @ lo.T), partial)
    return out


def characters(points, keys) -> np.ndarray:
    """``exp(2*pi*i*k.t)`` for every key ``k`` (row) and point ``t`` (column).

    Each character is the product of two half-dimension characters, one
    exponential per point and distinct half of the keys, so keys that share
    their halves (0/1 vectors, for one) cost far less than an exponential each.
    Key-major, so that both gathers copy whole rows.
    """
    s = (keys.shape[1] + 1) // 2
    lo, lo_of = _distinct_rows(keys[:, :s])  # integer rows group fastest
    hi, hi_of = _distinct_rows(keys[:, s:])
    out = exp_2pi_i(lo.astype(np.float64) @ points[:, :s].T)[lo_of]
    out *= exp_2pi_i(hi.astype(np.float64) @ points[:, s:].T)[hi_of]
    return out


def _distinct_rows(block):
    """Distinct rows of a 2-D numeric array, lexicographically, and each row's index among them.

    Equal rows are runs of one stable sort (``np.unique(axis=0)`` is far
    slower): of the rows' mixed-radix codes (``_row_codes``) when they fit
    in ``int64``, else one ``np.lexsort`` over the columns.  Rows compare by
    value, so ``-0.0`` equals ``0.0``; a block with no columns has one
    distinct row.
    """
    codes = _row_codes(block)
    if codes is None:
        order = np.lexsort(block.T[::-1]) if block.shape[1] else np.arange(len(block))
        rows = compared = block[order]
    else:
        order = np.argsort(codes, kind="stable")
        rows, compared = block[order], codes[order, None]  # a row's code compares like the row
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (compared[1:] != compared[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return rows[starts], inverse


def _row_codes(block):
    """Each row of an integer block as one ``int64`` that sorts like the row, or None.

    With ``lo`` the block's least entry and ``s = max - lo + 1`` its span,
    row ``x`` codes as ``sum_m (x_m - lo) s^(c-1-m)`` over its ``c``
    columns; None for float and empty blocks, for one column (already a
    single sort key), and when ``s^c >= 2^63``.
    """
    if block.dtype.kind not in "iu" or block.size == 0 or block.shape[1] == 1:
        return None
    lo = block.min()
    span = int(block.max()) - int(lo) + 1
    if span ** block.shape[1] >= 2**63:
        return None
    # unsigned entries minus lo stay in range; signed ones are widened first
    digits = (block - lo if block.dtype.kind == "u" else block.astype(np.int64) - lo).astype(np.int64, copy=False)
    return digits @ span ** np.arange(block.shape[1] - 1, -1, -1, dtype=np.int64)


def exp_2pi_i(phases) -> np.ndarray:
    """``exp(2*pi*i*phases)``, each phase first reduced mod 1 (an exact step).

    So ``k.x`` at every rectangle-rule node, a whole multiple of 1/2 for
    any allowed ``k``, gives ``+-1`` up to the ``1.2e-16`` of ``sin(pi)``.
    """
    phases = np.asarray(phases, dtype=np.float64)
    turns = np.floor(phases)
    np.subtract(phases, turns, out=turns)
    turns *= 2.0 * np.pi
    out = np.empty(turns.shape, dtype=np.complex128)
    np.cos(turns, out=out.real)
    np.sin(turns, out=out.imag)
    return out


def random_polynomial(dim, n_terms, rng, max_magnitude=2) -> FourierPolynomial:
    """Random sparse polynomial with integer frequencies in a box.

    ``rng`` is a ``numpy.random.Generator``; coefficients are complex
    standard normal.  Collisions between sampled frequency vectors reduce
    the term count, so ``len(result) <= n_terms``.
    """
    terms: dict[MultiIndex, complex] = {}
    for _ in range(int(n_terms)):
        k = tuple(int(v) for v in rng.integers(-max_magnitude, max_magnitude + 1, size=dim))
        terms[k] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierPolynomial(dim, terms)
