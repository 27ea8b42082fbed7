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
zero to exactly 1 and confines the support to ``{-1,0,1}^d``.  A frequency
``k`` takes all its pairs from one mode, as it fixes the free bits and block
weight of ``h = v + k`` and so ``h``'s orbit: pairs group by difference alone,
in base-3 codes that need Python ints only from ``d = 40``.

``crosscheck_coefficients`` recomputes the same coefficients through the
literal product of the two factors (a sparse convolution) and reports the
largest deviation, providing an independent route through the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cubature import CubatureRule, _closed_form, apply_rule
from .errors import (
    CapExceededError,
    CertificateError,
    DimensionMismatchError,
    NullspaceError,
    RefusalError,
    UnsupportedPatternError,
)
from .fourier import FourierPolynomial, MultiIndex, _collect, _distinct_rows, _from_sorted, exp_2pi_i
from .korobov import korobov_norm, require_alpha, zeta_floor
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
    factor is the product of two half-dimension characters.  The result is
    the view ``B[:, :n].T`` of the ``(n+1) x (n+1)`` buffer ``B`` that
    ``construct_certificate`` factorizes: row ``j`` of ``B`` is column ``j``
    of the bordered system ``[A; c^T]`` (``nullspace_solution``).
    """
    if rule.dim != pattern.dim:
        raise DimensionMismatchError("rule and pattern dimensions differ")
    threshold = critical_node_count(pattern)
    if rule.n_nodes >= threshold:
        raise RefusalError(rule.n_nodes, threshold)
    return _bordered_system(rule, pattern, psi)[1][:, :-1].T


#: Buffer entries filled per block of mode rows: 256 kB, so that a block's temporaries stay in cache.
_BLOCK_ENTRIES = 1 << 14


def _bordered_system(rule, pattern, psi):
    """The validated modes, the buffer ``B`` of ``constraint_matrix`` and ``max |A|``, for a checked rule and pattern.

    Each block of mode rows is formed in place, entry by entry in one fixed
    order (lower-half character, times upper-half character, times each
    coordinate block's ``e_j`` factor, divided by the group order), so its
    bits do not depend on the block size.  Two spare arrays serve all blocks
    (new ones would be faulted in again), and each block's largest modulus is
    taken while it is in cache.  The border column is left unset.
    """
    n_nodes = rule.n_nodes
    modes = _validate_mode_order(psi, pattern, n_nodes)
    blocks = [[i - 1 for i in g] for g in pattern.groups]
    free = sorted(set(range(pattern.dim)).difference(*blocks))
    points, keys = rule.nodes[:, free], modes[:, free]
    s = (len(free) + 1) // 2  # each free character is the product of two half characters
    lo, lo_of = _distinct_rows(keys[:, :s])  # integer rows group fastest
    hi, hi_of = _distinct_rows(keys[:, s:])
    lo = exp_2pi_i(lo.astype(np.float64) @ points[:, :s].T)  # one row per distinct half
    hi = exp_2pi_i(hi.astype(np.float64) @ points[:, s:].T)
    factors = []
    for cols in blocks:
        z = exp_2pi_i(rule.nodes[:, cols].T)
        elementary = np.zeros((len(cols) + 1, n_nodes), dtype=np.complex128)
        elementary[0] = 1.0
        for m in range(len(cols)):
            elementary[1 : m + 2] += z[m] * elementary[: m + 1]
        factors.append((elementary, modes[:, cols].sum(axis=1).astype(np.intp)))
    order = float(group_order(pattern))
    buffer = np.empty((n_nodes + 1, n_nodes + 1), dtype=np.complex128)
    step = max(1, _BLOCK_ENTRIES // max(1, n_nodes))
    spare, moduli = np.empty((2, step, n_nodes), dtype=np.complex128), np.empty((step, n_nodes))
    peaks = []
    for start in range(0, n_nodes + 1, step):
        rows = slice(start, start + step)
        block = buffer[rows, :n_nodes]
        lo_rows, hi_rows = spare[:, : len(block)]  # mode="clip" gathers into them in place, where "raise" would buffer
        np.take(lo, lo_of[rows], axis=0, out=lo_rows, mode="clip")
        np.multiply(lo_rows, np.take(hi, hi_of[rows], axis=0, out=hi_rows, mode="clip"), out=block)
        for elementary, ones in factors:
            block *= np.take(elementary, ones[rows], axis=0, out=lo_rows, mode="clip")
        block /= order
        peaks.append(np.max(np.abs(block, out=moduli[: len(block)]), initial=0.0))  # NaN when an entry is NaN
    return modes, buffer, np.max(peaks)


def _validate_mode_order(psi, pattern, n_nodes) -> np.ndarray:
    """``psi`` as an ``int64`` array, checked to hold distinct canonical 0/1 rows."""
    if len(psi) != n_nodes + 1:
        raise ValueError(f"mode order must list {n_nodes + 1} vectors, got {len(psi)}")
    if any(len(k) != pattern.dim for k in psi):
        raise DimensionMismatchError("mode order entry has wrong dimension")
    modes = np.array(psi, dtype=np.float64).reshape(n_nodes + 1, pattern.dim)
    if not np.isin(modes, (0, 1)).all():  # checked as floats, so 0.5 is refused rather than truncated
        raise ValueError("mode order entries must be 0/1 vectors")
    modes = modes.astype(np.int64)
    if not np.array_equal(canonical_rows(pattern, modes), modes):
        raise ValueError("mode order entries must be canonical under the pattern")
    if len(_distinct_rows(modes)[0]) != len(modes):
        raise ValueError("mode order entries must be distinct")
    return modes


def nullspace_solution(matrix, residual_tol=DEFAULT_CHECK_TOL) -> NullspaceSolution:
    """Nontrivial nullspace vector of an ``n x (n+1)`` complex matrix ``A``.

    First one LU solve (LAPACK ``getrf``, partial pivoting; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 9) of the
    bordered square system ``M = [A; c^T]``, where ``c`` is a fixed row of
    unit-modulus phases times ``max |A|``: the solution ``y`` of
    ``M y = e_{n+1}`` satisfies ``A y = 0``.  A second right-hand side, a
    fixed phase vector, probes ``|M^-1|`` in the same factorization.  When
    ``M`` is singular, or the largest modulus of the two solution columns
    times ``max |A|`` reaches ``1e8`` (nullity above one, or a border nearly
    orthogonal to the nullspace), the complete Householder QR factorization
    ``A^T = QR`` runs instead (Golub & Van Loan, *Matrix Computations*,
    5.2): ``R`` has a zero last row, so whatever the rank of ``A`` the last
    column ``q`` of ``Q`` satisfies ``A conj(q) = 0``.  Either vector is
    divided by its first entry of maximal modulus, whose position becomes
    ``pivot_index``.  Raises ``ValueError`` when an entry or its modulus is
    not finite, and ``NullspaceError`` unless the residual ``max |A v|`` is
    at most ``residual_tol`` (the caller may retry with a different mode
    order).  ``A`` is copied into the layout of ``constraint_matrix``'s buffer.
    """
    a_mat = np.asarray(matrix, dtype=np.complex128)
    if a_mat.ndim != 2 or a_mat.shape[1] != a_mat.shape[0] + 1:
        raise ValueError(f"expected an n x (n+1) matrix, got shape {a_mat.shape}")
    n_rows = len(a_mat)
    buffer = np.empty((n_rows + 1, n_rows + 1), dtype=np.complex128)
    buffer[:, :n_rows] = a_mat.T
    step = max(1, _BLOCK_ENTRIES // max(1, n_rows))
    with np.errstate(over="ignore"):  # a modulus that overflows is inf, refused in _solved
        peaks = [np.max(np.abs(buffer[i : i + step, :n_rows]), initial=0.0) for i in range(0, n_rows + 1, step)]
    return _solved(a_mat, buffer, np.max(peaks), residual_tol)


#: The bordered solve is trusted while ``max |M^-1 [e_{n+1}, r]| * max |A|`` stays below this.
_BORDER_LIMIT = 1e8


def _solved(a_mat, buffer, scale, residual_tol) -> NullspaceSolution:
    """``nullspace_solution`` of ``A``, held also as ``buffer[:, :n].T``, given ``max |A|``.

    The border ``c_j = scale exp(2 pi i j g)`` goes into the last column and
    the probe is ``r_j = exp(2 pi i j s)`` (``g``, ``s`` the fractional parts
    of the golden ratio and of ``sqrt 2``), so the result depends on ``A``
    alone.  ``buffer.T`` is ``M`` in Fortran order, as LAPACK takes it.  The
    residual is taken on ``a_mat`` as the caller laid it out.
    """
    if not np.isfinite(scale):  # exactly when an entry is NaN or inf, or a finite entry's modulus overflows
        raise ValueError("the matrix has a non-finite entry or modulus")
    n_rows = len(buffer) - 1
    steps = np.arange(n_rows + 1)
    buffer[:, n_rows] = scale * exp_2pi_i(steps * ((5**0.5 - 1) / 2))
    rhs = np.zeros((n_rows + 1, 2), dtype=np.complex128)
    rhs[n_rows, 0] = 1.0
    rhs[:, 1] = exp_2pi_i(steps * (2**0.5 - 1))
    try:
        solved = np.linalg.solve(buffer.T, rhs)
        vec = solved[:, 0] if np.max(np.abs(solved)) * scale < _BORDER_LIMIT else None  # NaN and inf fail too
    except np.linalg.LinAlgError:  # an exactly singular M
        vec = None
    if vec is None:
        vec = np.linalg.qr(buffer[:, :n_rows], mode="complete")[0][:, -1].conj()
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
        combination = [{"re": z.real, "im": z.imag} for z in self.solution.coefficients.tolist()]
        return self._json_dict(self.polynomial.to_json_dict(), [list(k) for k in self.mode_order], combination)

    def _json_dict(self, polynomial, mode_order, combination) -> dict:
        """``to_json_dict()`` with its three largest values given: ``cli`` passes their JSON text."""
        data = {
            "schema_version": 1,
            "kind": "fooling-certificate",
            "dim": self.pattern.dim,
            "pattern": self.pattern.to_json_dict(),
            "alpha": self.alpha,
            "polynomial": polynomial,
            "mode_order": mode_order,
            "combination": combination,
            "pivot_index": self.solution.pivot_index,
            "rule_value": {"re": self.rule_value.real, "im": self.rule_value.imag},
            "integral_value": {"re": self.integral_value.real, "im": self.integral_value.imag},
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
        lexicographic stream.  Weighted certificates use a weight-ordered
        prefix.

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
    cert, limits = _assembled(rule, pattern, alpha, mode_order)
    return replace(cert, rule_value=_verified(rule, apply_rule(rule, cert.polynomial), cert.residuals, limits))


def _assembled(rule, pattern, alpha, mode_order):
    """``construct_certificate`` short of the rule's value: the certificate (its ``rule_value`` None) and the
    limits of its residuals."""
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
        try:  # the closed form at the default tolerance of 1e-9, raised to zeta's floor
            upper = _closed_form(pattern.dim, a_smooth, max(1e-9, zeta_floor(a_smooth)))[0]
        except OverflowError as exc:  # the closed form leaves the float range: say so
            raise RefusalError(n_nodes, threshold, None, str(exc)) from None
        raise RefusalError(n_nodes, threshold, upper, f"the folded rule achieves error <= {upper:.6g}")

    if mode_order is None:
        mode_order = canonical_binary_vectors(pattern, stop=n_nodes + 1, cap=None)[0]
    psi, buffer, scale = _bordered_system(rule, pattern, mode_order)
    solution = _solved(buffer[:, :-1].T, buffer, scale, DEFAULT_CHECK_TOL * scale)
    del buffer  # the (n+1)^2 buffer goes before the checks allocate theirs
    poly = _from_sorted(pattern.dim, *_certificate_terms(pattern, psi, solution.coefficients, solution.pivot_index))

    integral_value = poly.integral()
    norm_value = korobov_norm(poly, a_smooth)
    residuals = {
        "nullspace": solution.residual,
        "integral_deviation": abs(integral_value - 1.0),
        "norm_excess": max(0.0, norm_value - 1.0),
    }
    cert = FoolingCertificate(
        pattern=pattern,
        alpha=a_smooth,
        polynomial=poly,
        mode_order=tuple(map(tuple, psi.tolist())),
        solution=solution,
        rule_value=None,
        integral_value=integral_value,
        norm_value=norm_value,
        residuals=residuals,
    )
    return cert, {"integral_deviation": 1e-12, "norm_excess": DEFAULT_CHECK_TOL}


def _verified(rule: CubatureRule, value, residuals, limits, message="certificate verification failed") -> complex:
    """``value``, the rule's value ``Q(poly)`` on a certificate, once the certificate's residuals pass their limits.

    Stores ``|Q(poly)|`` as ``residuals["rule_value"]`` and bounds it by
    ``DEFAULT_CHECK_TOL * (1 + sum |w_n|)``; every residual named in
    ``limits`` is bounded by its limit.  Any excess raises
    ``CertificateError(message, residuals)``.  Both certificate
    constructors end here.
    """
    residuals["rule_value"] = abs(value)
    limits = {"rule_value": DEFAULT_CHECK_TOL * (1.0 + rule.weight_abs_sum()), **limits}
    if not all(residuals[name] <= limit for name, limit in limits.items()):  # NaN fails
        raise CertificateError(message, residuals)
    return value


def _certificate_terms(pattern: InvariancePattern, psi, coefficients, pivot):
    """Certificate keys (sorted ``int64`` rows) and coefficients from orbit convolution counts.

    The coefficient at ``k`` is ``count_n(k) / |V| * a_n``: ``V`` is the pivot's orbit and
    ``count_n(k)`` counts pairs ``(v, h)`` in ``V x orbit(psi[n])`` with ``h - v = k``, for
    the one mode ``n`` that has any (the pattern fixes the free coordinates and permutes the
    block, so ``k`` fixes ``h``'s free bits and block weight, hence its orbit).  ``count / |V|``
    is ``count * stabilizer / group_order``, one correctly rounded division as ``V`` fits in
    memory.  Differences are coded in base 3 (digit ``k_m + 1``), so codes sort like keys; the
    largest code is ``3^d - 1``, a Python int from ``d = 40`` on.
    """
    dim = pattern.dim
    modes, owner = orbit_members(pattern, psi)
    digits = 3 ** np.arange(dim - 1, -1, -1, dtype=object if 3**dim >= 2**63 else np.int64)
    codes = modes @ digits
    in_pivot = np.flatnonzero(owner == pivot)
    # code(h - v) = code(h) - code(v) + code(1, ..., 1)
    pair_code = (codes + digits.sum())[None, :] - codes[in_pivot][:, None]
    _, first_pair, counts = np.unique(pair_code, return_index=True, return_counts=True)
    v, h = np.divmod(first_pair, len(codes))  # one (v, h) pair of each key
    values = counts / len(in_pivot) * np.asarray(coefficients)[owner[h]] + 0.0  # a -0.0 part is written as 0.0
    return modes[h] - modes[in_pivot[v]], values


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
