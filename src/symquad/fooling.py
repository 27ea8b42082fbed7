"""Lower-bound certificates: fooling functions for undersized cubature rules.

Any rule whose node count ``n`` is below the critical count for an
invariance pattern can be defeated: there is an invariant polynomial in
the unit ball that vanishes at every node yet has integral 1, so the rule
cannot distinguish it from zero and its worst-case error is at least the
initial error.  This module makes that argument executable.

The construction works with the first ``n + 1`` canonical 0/1 frequency
vectors in a fixed enumeration order.  Averaging each corresponding
exponential over its orbit and scaling by the inverse stabilizer count
yields ``n + 1`` invariant basis functions; a nontrivial combination of
them vanishing at all nodes is read off a homogeneous ``n x (n+1)``
system.  Multiplying that combination by the reflected orbit average of a
pivot mode produces the certificate polynomial.  Its coefficients are
assembled directly from a closed formula (orbit convolution counts with
exact rational multiplicities), which pins the coefficient at frequency
zero to exactly 1 and confines the support to ``{-1,0,1}^d``.

``crosscheck_coefficients`` recomputes the same coefficients through the
literal product of the two factors (a sparse convolution) and reports the
largest deviation, providing an independent route through the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubature import CubatureRule, apply_rule, rectangle_worst_case_error
from .errors import (
    CapExceededError,
    CertificateError,
    DimensionMismatchError,
    NullspaceError,
    RefusalError,
    UnsupportedPatternError,
)
from .fourier import FourierPolynomial, MultiIndex, _collect, _distinct_rows, _from_sorted, characters, exp_2pi_i
from .korobov import korobov_norm, require_alpha
from .symmetry import (
    InvariancePattern,
    canonical_binary_vectors,
    canonical_rows,
    critical_node_count,
    group_order,
    orbit_members,
)

#: Tolerance of the certificate checks (for the nullspace residual, times max |A|).
DEFAULT_CHECK_TOL = 1e-9

#: ``crosscheck_coefficients`` expands the product literally only up to here.
CROSSCHECK_MAX_DIM = 8
CROSSCHECK_MAX_GROUP_ORDER = math.factorial(10)


@dataclass(frozen=True)
class NullspaceSolution:
    """Nontrivial solution of the homogeneous node system.

    ``coefficients[pivot_index] == 1`` and every modulus is at most 1;
    ``residual`` is the infinity norm of the matrix applied to the vector.
    """

    coefficients: np.ndarray
    pivot_index: int
    residual: float


def constraint_matrix(rule: CubatureRule, pattern: InvariancePattern, psi) -> np.ndarray:
    """Node-evaluation matrix of the invariant basis functions.

    Entry ``(i, n)`` is the orbit sum of ``exp(2*pi*i*v.t_i)`` over the
    orbit of ``psi[n]``, divided by the group order; equivalently the orbit
    average of the exponential divided by the stabilizer count.  All
    moduli are at most 1.  ``psi`` must list ``rule.n_nodes + 1`` distinct
    canonical 0/1 vectors.  With ``z_m = exp(2*pi*i*t_m)``, the orbit sum of
    a vector with free bits ``f`` and ``j_r`` ones in block ``B_r`` is
    ``prod_{f_m=1} z_m * prod_r e_{j_r}(z_{B_r})`` (``e_j`` the elementary
    symmetric polynomials, from ``e_j <- e_j + z_m e_{j-1}``); the free
    factor is the product of two half-dimension characters.
    """
    if rule.dim != pattern.dim:
        raise DimensionMismatchError("rule and pattern dimensions differ")
    n_nodes = rule.n_nodes
    threshold = critical_node_count(pattern)
    if n_nodes >= threshold:
        raise RefusalError(n_nodes, threshold)
    modes = _validate_mode_order(psi, pattern, n_nodes)
    blocks = [[i - 1 for i in g] for g in pattern.groups]
    free = sorted(set(range(pattern.dim)).difference(*blocks))
    matrix = characters(rule.nodes[:, free], modes[:, free])  # one row per mode
    for cols in blocks:
        z = exp_2pi_i(rule.nodes[:, cols].T)
        elementary = np.zeros((len(cols) + 1, n_nodes), dtype=np.complex128)
        elementary[0] = 1.0
        for m in range(len(cols)):
            elementary[1 : m + 2] += z[m] * elementary[: m + 1]
        matrix *= elementary[modes[:, cols].sum(axis=1).astype(np.intp)]
    matrix /= float(group_order(pattern))
    return matrix.T


def _validate_mode_order(psi, pattern, n_nodes) -> np.ndarray:
    """``psi`` as a float array, checked to hold distinct canonical 0/1 rows."""
    if len(psi) != n_nodes + 1:
        raise ValueError(f"mode order must list {n_nodes + 1} vectors, got {len(psi)}")
    if any(len(k) != pattern.dim for k in psi):
        raise DimensionMismatchError("mode order entry has wrong dimension")
    modes = np.array(psi, dtype=np.float64).reshape(n_nodes + 1, pattern.dim)
    if not np.isin(modes, (0, 1)).all():  # also rejects 0.5, which int() would truncate
        raise ValueError("mode order entries must be 0/1 vectors")
    if not np.array_equal(canonical_rows(pattern, modes), modes):
        raise ValueError("mode order entries must be canonical under the pattern")
    if len(_distinct_rows(modes)[0]) != len(modes):
        raise ValueError("mode order entries must be distinct")
    return modes


def nullspace_solution(matrix, residual_tol=DEFAULT_CHECK_TOL) -> NullspaceSolution:
    """Nontrivial nullspace vector of an ``n x (n+1)`` complex matrix ``A``.

    One Householder QR factorization ``A^T = QR`` (LAPACK, raw mode; Golub &
    Van Loan, *Matrix Computations*, 5.1.6 and 5.2).  ``R`` has a zero last
    row, so whatever the rank of ``A``, the last column ``q = Q e_{n+1}`` of
    ``Q`` satisfies ``A conj(q) = 0``; it is formed by applying the ``n``
    reflectors to ``e_{n+1}``, not by forming ``Q``.  That vector is divided
    by its first entry of maximal modulus, whose position becomes
    ``pivot_index``.  Raises ``ValueError`` for a non-finite entry, and
    ``NullspaceError`` unless the residual ``max |A v|`` is at most
    ``residual_tol`` (the caller may retry with a different mode order).
    """
    a_mat = np.asarray(matrix, dtype=np.complex128)
    if a_mat.ndim != 2 or a_mat.shape[1] != a_mat.shape[0] + 1:
        raise ValueError(f"expected an n x (n+1) matrix, got shape {a_mat.shape}")
    if not np.isfinite(a_mat).all():
        raise ValueError("the matrix has a non-finite entry")
    # Row j of h holds reflector v_j right of the diagonal, where R's diagonal
    # (not needed) is replaced by v_j's leading 1: Q = H_0 ... H_{n-1} with
    # H_j = I - tau_j v_j v_j^H acting on entries j..n.
    h, tau = np.linalg.qr(a_mat.T, mode="raw")
    np.fill_diagonal(h, 1.0)
    vec = np.zeros(a_mat.shape[1], dtype=np.complex128)
    vec[-1] = 1.0
    for j in range(len(tau) - 1, -1, -1):
        reflector = h[j, j:]
        vec[j:] -= (tau[j] * np.vdot(reflector, vec[j:])) * reflector
    vec = vec.conj()
    pivot_index = int(np.argmax(np.abs(vec)))
    vec = vec / vec[pivot_index]
    vec[pivot_index] = 1.0
    vec /= np.maximum(np.abs(vec), 1.0)  # rounding may leave a modulus just above 1
    residual = float(np.max(np.abs(a_mat @ vec), initial=0.0))
    if not residual <= residual_tol:  # a NaN tolerance accepts nothing
        raise NullspaceError(
            f"nullspace residual {residual:.3e} exceeds tolerance {residual_tol:.3e}",
            residual,
        )
    return NullspaceSolution(vec, pivot_index, residual)


@dataclass(frozen=True)
class FoolingCertificate:
    """A verified fooling function for a specific rule.

    ``polynomial`` vanishes at every rule node (up to the recorded
    residual), integrates to ``integral_value``, and lies in the unit ball
    witnessed by ``norm_value``.  ``mode_order`` and ``solution`` record
    the enumeration and combination used, making the certificate
    reproducible.  Weighted certificates carry the scaling factor and the
    guaranteed integral floor.
    """

    pattern: InvariancePattern
    alpha: float
    polynomial: FourierPolynomial
    mode_order: tuple[MultiIndex, ...]
    solution: NullspaceSolution
    rule_value: complex
    integral_value: complex
    norm_value: float
    residuals: dict[str, float]
    weight_scale: float | None = None
    weight_floor: float | None = None
    gammas: tuple | None = None

    @property
    def weighted(self) -> bool:
        return self.weight_scale is not None

    def to_json_dict(self) -> dict:
        data = {
            "schema_version": 1,
            "kind": "fooling-certificate",
            "dim": self.pattern.dim,
            "pattern": self.pattern.to_json_dict(),
            "alpha": self.alpha,
            "polynomial": self.polynomial.to_json_dict(),
            "mode_order": [list(k) for k in self.mode_order],
            "combination": [
                {"re": z.real, "im": z.imag} for z in self.solution.coefficients
            ],
            "pivot_index": self.solution.pivot_index,
            "rule_value": {"re": self.rule_value.real, "im": self.rule_value.imag},
            "integral_value": {
                "re": self.integral_value.real,
                "im": self.integral_value.imag,
            },
            "norm_value": self.norm_value,
            "residuals": dict(sorted(self.residuals.items())),
        }
        if self.weighted:
            data["weight_scale"] = self.weight_scale
            data["weight_floor"] = self.weight_floor
            data["gammas"] = [float(g) for g in self.gammas]
        return data


def construct_certificate(
    rule: CubatureRule,
    pattern: InvariancePattern,
    alpha,
    *,
    mode_order=None,
) -> FoolingCertificate:
    """Build and verify a fooling function for a rule below the threshold.

    Parameters
    ----------
    rule : CubatureRule
        Any rule with fewer nodes than ``critical_node_count(pattern)``.
    pattern : InvariancePattern
        At most one coordinate group (the multi-block construction is not
        supported; its counting results remain available in ``symmetry``).
    alpha : float, > 1
    mode_order : sequence of 0/1 vectors, optional
        The ``n+1`` canonical vectors to combine; defaults to the
        lexicographic stream.  Weighted certificates pass a reordered
        prefix here.

    Raises
    ------
    RefusalError
        If ``rule.n_nodes >= critical_node_count(pattern)``; the error
        carries the folded-rule worst-case error at that size.
    NullspaceError
        If ``max |A v| > DEFAULT_CHECK_TOL * max |A|`` for the constraint matrix ``A``.
    CertificateError
        If a verification check fails; residuals are attached.
    """
    a_smooth = require_alpha(alpha)
    if rule.dim != pattern.dim:
        raise DimensionMismatchError("rule and pattern dimensions differ")
    if len(pattern.groups) > 1:
        raise UnsupportedPatternError(
            "certificates support at most one coordinate group"
        )
    n_nodes = rule.n_nodes
    threshold = critical_node_count(pattern)
    if n_nodes >= threshold:
        upper = rectangle_worst_case_error(pattern.dim, a_smooth).closed_form
        raise RefusalError(n_nodes, threshold, upper_bound_error=upper)

    if mode_order is None:
        mode_order = canonical_binary_vectors(pattern, stop=n_nodes + 1, cap=None)[0]
    matrix = constraint_matrix(rule, pattern, mode_order)
    psi = np.asarray(mode_order, dtype=np.int64)  # validated 0/1 rows, so nothing is truncated
    solution = nullspace_solution(matrix, DEFAULT_CHECK_TOL * np.max(np.abs(matrix), initial=0.0))
    poly = _from_sorted(pattern.dim, *_certificate_terms(pattern, psi, solution.coefficients, solution.pivot_index))

    integral_value = poly.integral()
    norm_value = korobov_norm(poly, a_smooth)
    residuals = {
        "nullspace": solution.residual,
        "integral_deviation": abs(integral_value - 1.0),
        "norm_excess": max(0.0, norm_value - 1.0),
    }
    limits = {"integral_deviation": 1e-12, "norm_excess": DEFAULT_CHECK_TOL}
    rule_value = _verified(rule, poly, residuals, limits, "certificate verification failed")
    return FoolingCertificate(
        pattern=pattern,
        alpha=a_smooth,
        polynomial=poly,
        mode_order=tuple(map(tuple, psi.tolist())),
        solution=solution,
        rule_value=rule_value,
        integral_value=integral_value,
        norm_value=norm_value,
        residuals=residuals,
    )


def _verified(rule: CubatureRule, poly: FourierPolynomial, residuals, limits, message) -> complex:
    """The rule's value ``Q(poly)``, once the certificate's residuals pass their limits.

    Stores ``|Q(poly)|`` as ``residuals["rule_value"]`` and bounds it by
    ``DEFAULT_CHECK_TOL * (1 + sum |w_n|)``; every residual named in
    ``limits`` is bounded by its limit.  Any excess raises
    ``CertificateError(message, residuals)``.  Both certificate
    constructors end here.
    """
    value = apply_rule(rule, poly)
    residuals["rule_value"] = abs(value)
    limits = {"rule_value": DEFAULT_CHECK_TOL * (1.0 + rule.weight_abs_sum()), **limits}
    if not all(residuals[name] <= limit for name, limit in limits.items()):  # NaN fails
        raise CertificateError(message, residuals)
    return value


def _certificate_terms(pattern: InvariancePattern, psi, coefficients, pivot):
    """Certificate keys (sorted ``int64`` rows) and coefficients from orbit convolution counts.

    The coefficient at ``k`` is the sum over ascending ``n`` of
    ``count_n(k) / |V| * a_n``: ``V`` is the pivot's orbit and ``count_n(k)``
    counts pairs ``(v, h)`` in ``V x orbit(psi[n])`` with ``h - v = k``.
    ``count / |V|`` is ``count * stabilizer / group_order``, one correctly
    rounded division as ``V`` fits in memory.  Differences are coded in
    base 3 (digit ``k_m + 1``), so codes sort like keys.
    """
    dim, n_modes = pattern.dim, len(psi)
    modes, owner = orbit_members(pattern, psi)
    wide = 3**dim * n_modes >= 2**63  # codes then need Python ints
    digits = 3 ** np.arange(dim - 1, -1, -1, dtype=object if wide else np.int64)
    codes = modes @ digits
    in_pivot = np.flatnonzero(owner == pivot)
    # code(h - v) = code(h) - code(v) + code(1, ..., 1), times n_modes plus the mode of h
    shifted = (codes + digits.sum()) * n_modes + owner
    pair_code = shifted[None, :] - (codes[in_pivot] * n_modes)[:, None]
    pair_code, first_pair, counts = np.unique(pair_code, return_index=True, return_counts=True)
    v, h = np.divmod(first_pair, len(codes))  # one (v, h) pair of each (key, mode)
    key_code = pair_code // n_modes
    first = np.append(True, key_code[1:] != key_code[:-1])
    parts = counts / len(in_pivot) * np.asarray(coefficients)[owner[h]]
    slot = np.cumsum(first) - 1  # bincount adds in array order: ascending mode per key
    values = np.bincount(slot, weights=parts.real) + 1j * np.bincount(slot, weights=parts.imag)
    return modes[h[first]] - modes[in_pivot[v[first]]], values


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of recomputing certificate coefficients by convolution."""

    max_abs_deviation: float
    n_terms_compared: int


def crosscheck_coefficients(
    cert: FoolingCertificate, pattern: InvariancePattern
) -> CrosscheckReport:
    """Recompute the certificate polynomial as a literal two-factor product.

    The first factor is the group order times the orbit average of the
    reflected pivot exponential; the second is the nullspace combination of
    stabilizer-scaled orbit averages.  Their sparse convolution must match
    the closed-formula coefficients stored in the certificate; the report
    carries the largest absolute deviation over the union of supports.
    """
    if pattern.dim > CROSSCHECK_MAX_DIM:
        raise CapExceededError(f"crosscheck limited to dimension <= {CROSSCHECK_MAX_DIM}")
    order = group_order(pattern)
    if order > CROSSCHECK_MAX_GROUP_ORDER:
        raise CapExceededError(f"crosscheck limited to group order <= {CROSSCHECK_MAX_GROUP_ORDER}")

    dim = pattern.dim
    pivot_key = np.asarray(cert.mode_order[cert.solution.pivot_index])
    members, _ = orbit_members(pattern, [-pivot_key])
    factor_one = _collect(dim, members, np.full(len(members), float(order) * (1 / len(members)), np.complex128))
    # distinct canonical vectors have disjoint orbits, so no two terms collide
    members, owner = orbit_members(pattern, cert.mode_order)
    sizes = np.bincount(owner)
    scaled = cert.solution.coefficients / (order // sizes) * (1 / sizes)
    factor_two = _collect(dim, members, scaled[owner])
    product = factor_one * factor_two
    if cert.weight_scale is not None:
        product = cert.weight_scale * product

    worst = float(np.max(np.abs((product - cert.polynomial).coeffs), initial=0.0))
    support = _distinct_rows(np.concatenate([product.keys, cert.polynomial.keys]))[0]
    return CrosscheckReport(max_abs_deviation=worst, n_terms_compared=len(support))
