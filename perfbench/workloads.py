"""Request lists of the benchmark's workloads, made from a seed.

Each workload is one fixed cycle of request templates.  The seed picks the
random parts of every template (block positions, node sets, node counts
within a narrow range, integrand coefficients) and the order of the cycle;
the sizes are fixed by the templates so that runs on different seeds do the
same amount of work.  The timed phase repeats the cycle.

``fold`` draws every request from a finite catalogue (template, variant)
so that the SHA-256 of each output can be compared with the reference
digests recorded in ``digests.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from checks import critical_count

WORKLOADS = ("fold", "certify", "integrate")

#: Smoothness used by every certificate request.
ALPHA = 2.0


@dataclass
class Request:
    """One ``symquad.cli.main`` call and how to check what it writes."""

    template: str
    argv: list
    check: str  # name of the check in checks.py, or "refusal"
    spec: dict = field(default_factory=dict)
    expect_rc: int = 0
    digest_key: str | None = None


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data))  # dumps uses the C encoder, dump does not


def _groups_flag(groups):
    """CLI flags for a pattern: --invariant for one block, --groups for more."""
    if not groups:
        return []
    spec = ";".join(",".join(str(i) for i in g) for g in groups)
    return ["--invariant", spec] if len(groups) == 1 else ["--groups", spec]


# --- fold ----------------------------------------------------------------
#
# (template, subcommand, dim, variants); each variant is a tuple of blocks.
# Node counts follow prod(g_r + 1) * 2^(d - sum g_r) and are the same for
# every variant of a template, so the variant changes bytes, not work.

_FOLD_CATALOGUE = (
    ("rule-trivial-14", "rule", 14, ((),)),
    ("rule-block6-17", "rule", 17, (((1, 2, 3, 4, 5, 6),), ((5, 6, 7, 8, 9, 10),),
                                    ((12, 13, 14, 15, 16, 17),), ((2, 5, 8, 11, 14, 17),))),
    ("rule-block8-18", "rule", 18, (((1, 2, 3, 4, 5, 6, 7, 8),), ((6, 7, 8, 9, 10, 11, 12, 13),),
                                    ((11, 12, 13, 14, 15, 16, 17, 18),),
                                    ((1, 3, 5, 7, 9, 11, 13, 15),))),
    ("rule-3x4-18", "rule", 18, (((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)),
                                 ((2, 3, 4, 5), (8, 9, 10, 11), (15, 16, 17, 18)),
                                 ((1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12)),
                                 ((7, 8, 9, 10), (11, 12, 13, 14), (15, 16, 17, 18)))),
    ("rule-2x3-16", "rule", 16, (((1, 2, 3), (4, 5, 6)), ((3, 4, 5), (10, 11, 12)),
                                 ((1, 8, 16), (2, 9, 15)), ((11, 12, 13), (14, 15, 16)))),
    ("rule-2x3-15", "rule", 15, (((1, 2, 3), (13, 14, 15)), ((4, 5, 6), (7, 8, 9)),
                                 ((2, 6, 10), (3, 7, 11)), ((9, 10, 11), (12, 13, 14)))),
    ("rule-block6-16", "rule", 16, (((1, 2, 3, 4, 5, 6),), ((6, 7, 8, 9, 10, 11),),
                                    ((11, 12, 13, 14, 15, 16),), ((1, 4, 7, 10, 13, 16),))),
    ("rect-14", "rect", 14, ((),)),
    ("nabla-block5-16", "nabla", 16, (((1, 2, 3, 4, 5),), ((4, 5, 6, 7, 8),),
                                      ((12, 13, 14, 15, 16),), ((2, 5, 8, 11, 14),))),
    ("nabla-2x4-17", "nabla", 17, (((1, 2, 3, 4), (5, 6, 7, 8)), ((3, 4, 5, 6), (11, 12, 13, 14)),
                                   ((1, 5, 9, 13), (2, 6, 10, 14)),
                                   ((10, 11, 12, 13), (14, 15, 16, 17)))),
    ("weights-block5-16", "weights", 16, (((1, 2, 3, 4, 5),), ((3, 4, 5, 6, 7),),
                                          ((12, 13, 14, 15, 16),), ((2, 4, 6, 8, 10),))),
    ("weights-block8-18", "weights", 18, (((1, 2, 3, 4, 5, 6, 7, 8),),
                                          ((5, 6, 7, 8, 9, 10, 11, 12),),
                                          ((11, 12, 13, 14, 15, 16, 17, 18),),
                                          ((2, 4, 6, 8, 10, 12, 14, 16),))),
)

_KAPPAS = (0.5, 1.0, 1.5, 2.0)


def _fold_gammas(dim, variant):
    """Non-increasing dyadic schedule; exact in JSON, distinct per variant."""
    return [0.5 ** ((i * (variant + 1)) // 6) for i in range(dim)]


def fold_request(template, subcommand, dim, variant, groups, out, workdir):
    """The catalogue entry ``template#variant`` as a request."""
    key = f"{template}#{variant}"
    if subcommand == "rect":
        argv = ["rule", "--rectangle", "-d", str(dim)]
        return Request(template, argv + ["--out", out], "rule",
                       {"dim": dim, "groups": ()}, digest_key=key)
    if subcommand == "rule":
        argv = ["rule", "--folded", "-d", str(dim), *_groups_flag(groups)]
        return Request(template, argv + ["--out", out], "rule",
                       {"dim": dim, "groups": groups}, digest_key=key)
    if subcommand == "nabla":
        argv = ["nabla", "-d", str(dim), *_groups_flag(groups)]
        return Request(template, argv + ["--out", out], "nabla",
                       {"dim": dim, "groups": groups}, digest_key=key)
    gammas = _fold_gammas(dim, variant)
    gpath = os.path.join(workdir, f"gammas-{template}-{variant}.json")
    _write_json(gpath, {"dim": dim, "gammas": gammas})
    kappa = _KAPPAS[variant % len(_KAPPAS)]
    argv = ["weights", "-d", str(dim), *_groups_flag(groups), "--gammas", gpath,
            "--kappa", repr(kappa)]
    return Request(template, argv + ["--out", out], "weights",
                   {"dim": dim, "group": groups[0], "gammas": gammas, "kappa": kappa},
                   digest_key=key)


def fold_catalogue(workdir, out):
    """Every (template, variant) of ``fold``; used to record the digests."""
    return [
        fold_request(t, sub, dim, v, groups, out, workdir)
        for t, sub, dim, variants in _FOLD_CATALOGUE
        for v, groups in enumerate(variants)
    ]


def build_fold(rng, workdir, out):
    requests = []
    for template, sub, dim, variants in _FOLD_CATALOGUE:
        v = int(rng.integers(len(variants)))
        requests.append(fold_request(template, sub, dim, v, variants[v], out, workdir))
    order = rng.permutation(len(requests))
    warm_gammas = os.path.join(workdir, "gammas-warmup.json")
    _write_json(warm_gammas, {"dim": 8, "gammas": _fold_gammas(8, 0)})
    warmups = [
        Request("warmup", ["rule", "--folded", "-d", "8", "--invariant", "1-4", "--out", out],
                "rule", {"dim": 8, "groups": ((1, 2, 3, 4),)}),
        Request("warmup", ["nabla", "-d", "8", "--invariant", "1-4", "--out", out],
                "nabla", {"dim": 8, "groups": ((1, 2, 3, 4),)}),
        Request("warmup", ["weights", "-d", "8", "--invariant", "1-4", "--gammas",
                           warm_gammas, "--kappa", "1.0", "--out", out], "weights",
                {"dim": 8, "group": (1, 2, 3, 4), "gammas": _fold_gammas(8, 0),
                 "kappa": 1.0}),
    ]
    return [requests[i] for i in order], warmups


# --- certify -------------------------------------------------------------
#
# (template, dim, block size, node-count range, weighted).  The ranges
# are narrow because time and peak memory grow with n; the seed varies the
# nodes, weights, block and schedule instead.  The first
# group sits just below the threshold (g+1)*2^(d-g) with small blocks, so
# the n x (n+1) nullspace solve dominates; the second uses blocks of 6-8
# with fewer nodes, so orbit enumeration and coefficient assembly dominate.
# The last template has at least the critical count and must be refused
# (exit code 2) after the worst-case error of the folded rule is computed.

_CERTIFY_TEMPLATES = (
    ("null-10-2", 10, 2, (688, 692), False),
    ("null-10-2-w", 10, 2, (628, 632), True),
    ("null-10-3", 10, 3, (507, 511), False),
    ("null-10-3-w", 10, 3, (507, 511), True),
    ("null-9-1", 9, 1, (507, 511), False),
    ("orbit-12-6", 12, 6, (408, 412), False),
    ("orbit-13-7-w", 13, 7, (348, 352), True),
    ("orbit-13-6", 13, 6, (408, 412), False),
    ("orbit-14-8-w", 14, 8, (288, 292), True),
    ("refuse-10-3", 10, 3, (512, 516), False),
)


def _random_block(rng, dim, size):
    return tuple(sorted(int(i) + 1 for i in rng.choice(dim, size=size, replace=False)))


def _write_rule(path, nodes, weights):
    _write_json(path, {
        "dim": int(nodes.shape[1]),
        "nodes": nodes.tolist(),
        "weights": [{"re": float(w.real), "im": float(w.imag)} for w in weights],
    })


def _certify_request(rng, workdir, out, template, dim, size, n_range, weighted, tag):
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    block = _random_block(rng, dim, size)
    nodes = rng.random((n, dim))
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rpath = os.path.join(workdir, f"rule-{tag}.json")
    _write_rule(rpath, nodes, weights)
    argv = ["certify", "--rule", rpath, *_groups_flag((block,)), "--alpha", repr(ALPHA)]
    gammas = None
    if weighted:
        gammas = sorted((float(g) for g in rng.uniform(0.3, 1.0, size=dim)), reverse=True)
        gpath = os.path.join(workdir, f"gammas-{tag}.json")
        _write_json(gpath, {"dim": dim, "gammas": gammas})
        argv += ["--weighted", "--gammas", gpath]
    refused = n >= (size + 1) << (dim - size)
    return Request(
        template, argv + ["--out", out], "refusal" if refused else "certificate",
        {"nodes": nodes, "weights": weights, "dim": dim, "group": block, "gammas": gammas},
        expect_rc=2 if refused else 0,
    )


def build_certify(rng, workdir, out):
    requests = [
        _certify_request(rng, workdir, out, t, d, g, nr, w, t)
        for t, d, g, nr, w in _CERTIFY_TEMPLATES
    ]
    order = rng.permutation(len(requests))
    warmups = [_certify_request(rng, workdir, out, "warmup", 6, 2, (30, 40), False, "warmup")]
    return [requests[i] for i in order], warmups


# --- integrate -----------------------------------------------------------
#
# Rules are written in set-up by ``symquad rule`` (what ``fold`` emits);
# integrands are shaped like ``cli.bench`` shapes them (at most two
# nonzero entries per frequency) and then symmetrized over a block, which
# keeps the symmetrized support in the thousands.  Full rectangle rules
# carry few terms (node-bound); folded rules carry many (term-bound).

#: (rule name, dim, block count x size or 0 for a rectangle rule)
_INTEGRATE_RULES = (
    ("rect-15", 15, 0, 0),
    ("rect-14", 14, 0, 0),
    ("fold-16-b8", 16, 1, 8),
    ("fold-18-b10", 18, 1, 10),
    ("fold-16-2x5", 16, 2, 5),
)

#: (template, rule name, integrand block size (0: the rule's blocks), terms)
_INTEGRATE_TEMPLATES = (
    ("rect-15", "rect-15", 4, 250),
    ("rect-14-a", "rect-14", 4, 450),
    ("rect-14-b", "rect-14", 5, 400),
    ("fold-16-b8-a", "fold-16-b8", 0, 4000),
    ("fold-16-b8-b", "fold-16-b8", 0, 4000),
    ("fold-18-b10-a", "fold-18-b10", 0, 3500),
    ("fold-18-b10-b", "fold-18-b10", 0, 3500),
    ("fold-16-2x5", "fold-16-2x5", 0, 3500),
)

#: Largest |k_m| of an integrand frequency; even entries reach the oracle.
_MAX_MAGNITUDE = 3


def _disjoint_blocks(rng, dim, count, size):
    chosen = rng.choice(dim, size=count * size, replace=False)
    return tuple(sorted(tuple(sorted(int(i) + 1 for i in chosen[r * size:(r + 1) * size]))
                        for r in range(count)))


def _orbit_key_and_size(k, groups):
    """Canonical form (blocks sorted) and orbit size (product of multinomials)."""
    key = list(k)
    size = 1
    for g in groups:
        values = sorted(key[i - 1] for i in g)
        for i, v in zip(g, values):
            key[i - 1] = v
        size *= math.factorial(len(g))
        for v in set(values):
            size //= math.factorial(values.count(v))
    return tuple(key), size


def _shaped_terms(rng, dim, groups, n_terms):
    """One random frequency per orbit, with at most two nonzero entries.

    Orbits are added until they hold at least ``n_terms`` frequencies, so
    the symmetrized integrand has that many terms give or take one orbit,
    whatever the seed.
    """
    zero = (0,) * dim
    terms = {zero: 1.0}
    seen = {zero}
    total = 1
    while total < n_terms:
        # Candidates in batches: two random positions, random entries there.
        batch = np.zeros((256, dim), dtype=np.int64)
        cols = np.argsort(rng.random((256, dim)), axis=1)[:, :2]
        np.put_along_axis(batch, cols, rng.integers(-_MAX_MAGNITUDE, _MAX_MAGNITUDE + 1,
                                                    size=(256, 2)), axis=1)
        coeffs = rng.standard_normal((256, 2))
        for k, (re, im) in zip(batch.tolist(), coeffs.tolist()):
            key, size = _orbit_key_and_size(k, groups)
            if key in seen:
                continue
            seen.add(key)
            total += size
            terms[key] = complex(re, im)
            if total >= n_terms:
                break
    return terms


def build_integrate(rng, workdir, out, symquad):
    """Write rules through the CLI and symmetrized integrands; return requests."""
    from symquad.fourier import FourierPolynomial
    from symquad.symmetry import InvariancePattern, symmetrize

    rules = {}
    for name, dim, count, size in _INTEGRATE_RULES:
        path = os.path.join(workdir, f"{name}.json")
        if count == 0:
            groups = ()
            argv = ["rule", "--rectangle", "-d", str(dim), "--out", path]
        else:
            groups = _disjoint_blocks(rng, dim, count, size)
            argv = ["rule", "--folded", "-d", str(dim), *_groups_flag(groups), "--out", path]
        if symquad.cli.main(argv) != 0:
            raise RuntimeError(f"set-up rule {' '.join(argv)} failed")
        rules[name] = (path, dim, groups)

    requests = []
    for template, rule_name, block_size, n_terms in _INTEGRATE_TEMPLATES:
        rpath, dim, groups = rules[rule_name]
        if not groups:
            groups = (_random_block(rng, dim, block_size),)
        pattern = InvariancePattern(dim, groups)
        terms = _shaped_terms(rng, dim, groups, n_terms)
        poly = symmetrize(FourierPolynomial(dim, terms), pattern)
        ppath = os.path.join(workdir, f"poly-{template}.json")
        data = poly.to_json_dict()
        _write_json(ppath, data)
        keys = np.array([t["k"] for t in data["terms"]], dtype=np.int64).reshape(-1, dim)
        coeffs = np.array([complex(t["re"], t["im"]) for t in data["terms"]], dtype=np.complex128)
        requests.append(Request(
            template, ["integrate", "--rule", rpath, "--poly", ppath, "--out", out],
            "integrate",
            {"n_nodes": critical_count(dim, rules[rule_name][2]), "weight_abs_sum": 1.0,
             "keys": keys, "coeffs": coeffs},
        ))
    order = rng.permutation(len(requests))

    wrule = os.path.join(workdir, "rule-warmup.json")
    wpoly = os.path.join(workdir, "poly-warmup.json")
    if symquad.cli.main(["rule", "--folded", "-d", "6", "--invariant", "1-3", "--out", wrule]):
        raise RuntimeError("set-up warm-up rule failed")
    wterms = {(0,) * 6: 1.0, (2, 0, 0, 0, 0, 0): 0.5, (0, 0, 0, 1, 0, 0): 0.25}
    wdata = symmetrize(FourierPolynomial(6, wterms), InvariancePattern.single(6, (1, 2, 3)))
    wdata = wdata.to_json_dict()
    _write_json(wpoly, wdata)
    warmups = [Request(
        "warmup", ["integrate", "--rule", wrule, "--poly", wpoly, "--out", out], "integrate",
        {"n_nodes": 32, "weight_abs_sum": 1.0,
         "keys": np.array([t["k"] for t in wdata["terms"]], dtype=np.int64),
         "coeffs": np.array([complex(t["re"], t["im"]) for t in wdata["terms"]])},
    )]
    return [requests[i] for i in order], warmups


def build(workload, seed, workdir, symquad):
    """(timed cycle, warm-up requests) of a workload; writes its inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = os.path.join(workdir, "out.json")
    if workload == "fold":
        return build_fold(rng, workdir, out)
    if workload == "certify":
        return build_certify(rng, workdir, out)
    return build_integrate(rng, workdir, out, symquad)
