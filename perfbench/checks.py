"""Independent output checks for the benchmark's requests.

Every check reads one output JSON file on its own and recomputes what it
claims from first principles with numpy and the standard library.  No
symquad function is imported here, so a defect in the library cannot
hide itself by also being in the checker.  Each check returns ``None``
on success or a one-line reason on failure.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: Slack of the certificate checks, as promised by the README.
CHECK_TOL = 1e-9


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def critical_count(dim, groups) -> int:
    """Number of canonical 0/1 vectors: prod (g_r + 1) * 2^(d - sum g_r)."""
    count = 1 << (dim - sum(len(g) for g in groups))
    for g in groups:
        count *= len(g) + 1
    return count


def _bits_check(bits, dim, groups, check_order=True):
    """Shared 0/1-row checks: canonical per group, strictly increasing rows."""
    if bits.ndim != 2 or bits.shape[1] != dim:
        return f"rows have shape {bits.shape}, expected (n, {dim})"
    if not np.all((bits == 0) | (bits == 1)):
        return "an entry is not 0/1"
    for g in groups:
        cols = bits[:, [i - 1 for i in g]]
        if cols.shape[1] > 1 and np.any(np.diff(cols, axis=1) < 0):
            return f"a row is not canonical in group {list(g)}"
    if check_order and bits.shape[0] > 1:
        # Rows as binary numbers, first coordinate most significant:
        # strictly increasing codes <=> strictly increasing lexicographic rows.
        codes = bits.astype(np.int64) @ (np.int64(1) << np.arange(dim - 1, -1, -1, dtype=np.int64))
        if np.any(np.diff(codes) <= 0):
            return "rows are not strictly increasing in lexicographic order"
    return None


def _orbit_sizes(bits, groups) -> np.ndarray:
    """prod_r C(g_r, j_r), j_r the ones-count of block r, as int64."""
    sizes = np.ones(bits.shape[0], dtype=np.int64)
    for g in groups:
        table = np.array([math.comb(len(g), j) for j in range(len(g) + 1)], dtype=np.int64)
        ones = bits[:, [i - 1 for i in g]].sum(axis=1)
        sizes *= table[ones]
    return sizes


def check_rule(path, dim, groups):
    """A folded (or, with no groups, rectangle) rule written by ``rule``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("dim") != dim:
        return f"dim {data.get('dim')} != {dim}"
    nodes = np.asarray(data["nodes"], dtype=np.float64).reshape(-1, dim)
    w_re = np.fromiter((w["re"] for w in data["weights"]), dtype=np.float64)
    w_im = np.fromiter((w["im"] for w in data["weights"]), dtype=np.float64)
    expected = critical_count(dim, groups)
    if nodes.shape[0] != expected or w_re.size != expected:
        return f"{nodes.shape[0]} nodes / {w_re.size} weights, product formula gives {expected}"
    doubled = nodes * 2.0
    bits = doubled.astype(np.int64)
    if not np.array_equal(doubled, bits.astype(np.float64)):
        return "a node coordinate is outside {0, 1/2}"
    reason = _bits_check(bits, dim, groups)
    if reason:
        return reason
    if np.any(w_im != 0.0):
        return "a weight has a nonzero imaginary part"
    scaled = w_re * float(1 << dim)  # exact: a power-of-two scaling
    numerators = scaled.astype(np.int64)
    if not np.array_equal(scaled, numerators.astype(np.float64)):
        return "a weight times 2^d is not an integer"
    if not np.array_equal(numerators, _orbit_sizes(bits, groups)):
        return "a weight times 2^d differs from the product of binomials"
    if int(numerators.sum()) != 1 << dim:
        return "weights do not sum exactly to 1"
    return None


def check_nabla(path, dim, groups):
    """Canonical 0/1 vectors with orbit and stabilizer sizes from ``nabla``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    rows = data["rows"]
    expected = critical_count(dim, groups)
    if data.get("count") != expected or len(rows) != expected:
        return f"count {data.get('count')} / {len(rows)} rows, product formula gives {expected}"
    bits = np.array([r["k"] for r in rows], dtype=np.int64).reshape(-1, dim)
    reason = _bits_check(bits, dim, groups)
    if reason:
        return reason
    orbit_sizes = np.array([r["orbit_size"] for r in rows], dtype=np.int64)
    stabilizers = np.array([r["stabilizer_size"] for r in rows], dtype=np.int64)
    if not np.array_equal(orbit_sizes, _orbit_sizes(bits, groups)):
        return "an orbit size differs from the product of binomials"
    group_order = 1
    for g in groups:
        group_order *= math.factorial(len(g))
    if np.any(orbit_sizes * stabilizers != group_order):
        return "orbit size times stabilizer size differs from the group order"
    if data.get("orbit_size_total") != 1 << dim or int(orbit_sizes.sum()) != 1 << dim:
        return "orbit sizes do not sum to 2^d"
    return None


def effective_weights(bits, group, gammas) -> np.ndarray:
    """Smallest schedule product over in-group rearrangements of each row.

    With c ones inside the group the minimum puts them on the c smallest
    in-group schedules; out-of-group ones contribute their own schedule.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    dim = gammas.size
    in_group = np.zeros(dim, dtype=bool)
    in_group[[i - 1 for i in group]] = True
    smallest = np.sort(gammas[in_group])  # ascending
    prefix = np.concatenate(([1.0], np.cumprod(smallest)))
    ones_in = bits[:, in_group].sum(axis=1)
    free = np.where(bits[:, ~in_group] != 0, gammas[~in_group], 1.0)
    return prefix[ones_in] * np.prod(free, axis=1)


def check_weights(path, dim, group, gammas, kappa):
    """Ordered effective weights (and power sums) from ``weights``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    groups = (group,) if group else ()
    expected = critical_count(dim, groups)
    bits = np.array(data["ordering"], dtype=np.int64).reshape(-1, dim)
    weights = np.asarray(data["weights"], dtype=np.float64)
    if bits.shape[0] != expected or weights.size != expected:
        return f"{bits.shape[0]} rows / {weights.size} weights, product formula gives {expected}"
    reason = _bits_check(bits, dim, groups, check_order=False)
    if reason:
        return reason
    codes = bits @ (np.int64(1) << np.arange(dim - 1, -1, -1, dtype=np.int64))
    if np.unique(codes).size != expected:
        return "ordering repeats a vector"
    own = effective_weights(bits, group, gammas)
    if not np.allclose(weights, own, rtol=1e-12, atol=0.0):
        return "an effective weight differs from the recomputed one"
    steps = np.diff(weights)
    if np.any(steps > 0):
        return "weights are not non-increasing"
    if np.any((steps == 0) & (np.diff(codes) <= 0)):
        return "equal weights are not in lexicographic order"
    if kappa is not None:
        power = data.get("power_sum")
        if not power or power.get("exponent") != kappa:
            return "power sum missing"
        brute = math.fsum(float(w) ** kappa for w in own)
        if not math.isclose(power["brute"], brute, rel_tol=1e-12):
            return f"power sum {power['brute']} differs from {brute}"
        gam = np.asarray(gammas, dtype=np.float64)
        out = [gam[i] for i in range(dim) if i + 1 not in set(group)]
        closed = float(len(group) + 1)
        for g in out:
            closed *= 1.0 + float(g) ** kappa
        if not math.isclose(power["closed"], closed, rel_tol=1e-12):
            return "closed-form power sum differs"
        applicable = all(gammas[i - 1] == 1 for i in group)
        if power["closed_form_applicable"] != applicable:
            return "closed-form applicability flag is wrong"
    return None


def _terms(poly_json):
    terms = poly_json["terms"]
    dim = poly_json["dim"]
    keys = np.array([t["k"] for t in terms], dtype=np.int64).reshape(-1, dim)
    coeffs = np.fromiter(
        (complex(t["re"], t["im"]) for t in terms), dtype=np.complex128, count=len(terms)
    )
    return keys, coeffs


def rule_value(nodes, weights, keys, coeffs) -> complex:
    """sum_n w_n sum_k c_k exp(2 pi i k.t_n), in node chunks."""
    total = 0j
    chunk = max(1, (1 << 18) // max(1, keys.shape[0]))
    keys_t = keys.T.astype(np.float64)
    for lo in range(0, nodes.shape[0], chunk):
        phases = nodes[lo : lo + chunk] @ keys_t
        total += complex(weights[lo : lo + chunk] @ (np.exp(2j * np.pi * phases) @ coeffs))
    return total


def _single_block_weight_floor(dim, group, gammas, n_nodes) -> float:
    """The (n+1)-th largest effective weight over all canonical 0/1 vectors."""
    free = [i for i in range(1, dim + 1) if i not in set(group)]
    rows = []
    for j in range(len(group) + 1):
        head = np.zeros(dim, dtype=np.int64)
        head[[i - 1 for i in group[len(group) - j :]]] = 1
        rows.append(head)
    heads = np.array(rows)
    masks = ((np.arange(1 << len(free))[:, None] >> np.arange(len(free))) & 1).astype(np.int64)
    all_bits = np.repeat(heads, masks.shape[0], axis=0)
    all_bits[:, [i - 1 for i in free]] = np.tile(masks, (heads.shape[0], 1))
    own = np.sort(effective_weights(all_bits, group, gammas))[::-1]
    return float(own[n_nodes])


def check_certificate(path, nodes, weights, dim, group, gammas):
    """A fooling certificate from ``certify`` for the given rule arrays."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("kind") != "fooling-certificate" or data.get("dim") != dim:
        return "not a certificate of the requested dimension"
    keys, coeffs = _terms(data["polynomial"])
    if keys.shape[0] == 0:
        return "empty certificate polynomial"
    if np.any(np.abs(keys) > 1):
        return "support leaves {-1,0,1}^d"
    zero = np.flatnonzero(~keys.any(axis=1))
    c0 = coeffs[zero[0]] if zero.size else 0j
    if gammas is None:
        if c0 != 1.0:
            return f"zero coefficient {c0!r} is not exactly 1"
        # Support in {-1,0,1}^d makes every Korobov weight 1.
        norm = float(np.max(np.abs(coeffs)))
        if norm > 1.0 + CHECK_TOL:
            return f"norm {norm!r} exceeds 1"
    else:
        floor = _single_block_weight_floor(dim, group, gammas, nodes.shape[0])
        if not math.isclose(data.get("weight_floor", -1.0), floor, rel_tol=1e-12):
            return f"weight floor {data.get('weight_floor')} differs from {floor}"
        # Relative slack: the floor can be as small as a product of 14
        # schedule values, and the library's own verifier already allows
        # an absolute deficit of CHECK_TOL.
        if c0.real < floor * (1.0 - 1e-12) - 1e-15:
            return f"zero coefficient {c0!r} below the weight floor {floor}"
        mu = effective_weights(np.abs(keys), group, gammas)
        if np.any(mu <= 0.0):
            return "support meets a zero-weight frequency"
        norm = float(np.max(np.abs(coeffs) / np.sqrt(mu)))
        if norm > 1.0 + CHECK_TOL:
            return f"weighted norm {norm!r} exceeds 1"
    value = rule_value(nodes, weights, keys, coeffs)
    bound = CHECK_TOL * (1.0 + float(np.sum(np.abs(weights))))
    if abs(value) > bound:
        return f"|A(f)| = {abs(value):.3e} exceeds {bound:.3e}"
    return _check_orbit_constant(keys, coeffs, group)


def _check_orbit_constant(keys, coeffs, group):
    """Every orbit meets the support fully or not at all, with one coefficient."""
    if len(group) < 2:
        return None
    cols = [i - 1 for i in group]
    canon = keys.copy()
    canon[:, cols] = np.sort(keys[:, cols], axis=1)
    _, inverse, counts = np.unique(canon, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    block = keys[:, cols]
    g = len(group)
    fact = [math.factorial(i) for i in range(g + 1)]
    minus = (block == -1).sum(axis=1)
    plus = (block == 1).sum(axis=1)
    orbit = np.array(
        [fact[g] // (fact[m] * fact[p] * fact[g - m - p]) for m, p in zip(minus, plus)],
        dtype=np.int64,
    )
    if np.any(counts[inverse] != orbit):
        return "the support holds part of an orbit"
    scale = float(np.max(np.abs(coeffs)))
    first = np.zeros(counts.size, dtype=np.complex128)
    first[inverse] = coeffs
    if np.any(np.abs(coeffs - first[inverse]) > 1e-12 * scale):
        return "coefficients are not constant on orbits"
    return None


def check_integrate(path, n_nodes, weight_abs_sum, keys, coeffs):
    """An ``integrate`` value against the exact even-frequency oracle."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("n_nodes") != n_nodes:
        return f"n_nodes {data.get('n_nodes')} != {n_nodes}"
    value = complex(data["value"]["re"], data["value"]["im"])
    even = ~np.any(keys % 2, axis=1)
    oracle = complex(np.sum(coeffs[even]))
    bound = 1e-12 * (1.0 + float(np.sum(np.abs(coeffs)))) * (1.0 + weight_abs_sum)
    if abs(value - oracle) > bound:
        return f"value {value} differs from oracle {oracle} by more than {bound:.3e}"
    return None

