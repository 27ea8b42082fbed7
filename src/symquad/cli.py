"""Command-line front end.

Machine output is JSON with a top-level ``schema_version``; ``--format
table`` switches to aligned text for humans.  Exit codes: 0 on success,
1 on bad input or numerical failure, and 2 when certification is refused
because the rule already has enough nodes (the folded-rule error bound is
printed instead).
"""

import argparse
import csv
import functools
import io
import json
import re
import sys

import numpy as np

from .cubature import (
    CubatureRule,
    apply_rule,
    bench,
    folded_rectangle_rule,
    rectangle_rule,
    rectangle_worst_case_error,
)
from .errors import CertificateError, NullspaceError, RefusalError
from .fooling import construct_certificate
from .fourier import FourierPolynomial, _distinct_rows
from .symmetry import (
    DEFAULT_ENUMERATION_CAP,
    InvariancePattern,
    binary_orbit_sizes,
    canonical_binary_vectors,
    critical_node_count,
    group_order,
    parse_coordinate_set,
    parse_groups,
)
from .tractability import InvarianceProfile, evaluate_profile
from .weighted import WeightSchedule, _power_sums, _ranked_weights, construct_weighted_certificate

SCHEMA_VERSION = 1


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_rule(path):
    """The rule in the JSON file at ``path``.

    Text that ``rule`` wrote is read by ``_rule_from_writer_text``; any
    other text goes through ``json.load`` as ``_load_json`` reads it, so its
    values and errors are those of ``CubatureRule.from_json_dict``.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    rule = _rule_from_writer_text(raw)
    if rule is None:
        rule = CubatureRule.from_json_dict(json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")))
    return rule


_RULE_HEAD = re.compile(rb'\{"dim": ([1-9][0-9]{0,8}), "nodes": \[')
_WEIGHTS_KEY = b'"weights": ['


def _rule_from_writer_text(raw):
    """The rule whose ``rule`` output is the bytes ``raw``, or None.

    The inverse of ``_rule_payload``: node rows are ``5 d + 2`` bytes wide
    and the digit of each ``0.0``/``0.5`` token gives the coordinate; the
    weights are split on ``}, {`` and each distinct fragment is parsed
    once.  The rule is built through ``CubatureRule`` and kept only if
    writing it gives back ``raw`` byte for byte.  Since ``json.dumps``
    writes every float64 so that it reads back as itself, ``json.loads``
    would then have given the same values, signed zeros included.  Any
    other text, or any failure on the way, gives None.
    """
    head = _RULE_HEAD.match(raw)
    split = raw.find(_WEIGHTS_KEY) if head else -1
    if split < 0 or not raw.endswith(b"}]}\n"):
        return None
    dim, start = int(head.group(1)), head.end()
    width = 5 * dim + 2
    n, rem = divmod(raw.rfind(b"]", start, split) + 2 - start, width)
    fragments = raw[split + len(_WEIGHTS_KEY) + 1 : -4].split(b"}, {")
    if rem or len(fragments) != n:
        return None
    digits = np.frombuffer(raw, dtype=np.uint8, count=n * width, offset=start).reshape(n, width)[:, 3::5]
    distinct = dict.fromkeys(fragments)
    try:
        for fragment in distinct:
            value = json.loads(b"{" + fragment + b"}")
            distinct[fragment] = complex(value["re"], value["im"])
        rule = CubatureRule(dim, (digits == ord("5")) * 0.5, list(map(distinct.__getitem__, fragments)))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    return rule if _json_text(_rule_payload(rule)) == raw else None


def _json_text(payload):
    """``json.dumps({"schema_version": 1, **payload}, sort_keys=True) + "\\n"``, as bytes.

    The top-level object is assembled here, keys sorted.  A ``bytes`` value
    is JSON text from ``_json_list`` and is written as it stands; every
    other value goes through ``json.dumps``, which refuses NaN and the
    infinities (they are not JSON) with a ``ValueError``.
    """
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    fields = (
        json.dumps(key).encode() + b": "
        + (value if isinstance(value, bytes) else json.dumps(value, sort_keys=True, allow_nan=False).encode())
        for key, value in sorted(payload.items())
    )
    return b"{" + b", ".join(fields) + b"}\n"


def _emit(args, payload, table_lines):
    """Write the JSON text of the payload, or the lines (maybe a lazy generator) for tables."""
    if getattr(args, "format", "json") == "table":
        text = "\n".join(table_lines) + "\n"
    else:
        text = _json_text(payload).decode("ascii")
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_list(bits=None, tokens=(b"0", b"1"), before=b"", after=b"", keys=None, fragment=None):
    """JSON text (``bytes``) of a list, byte for byte what ``json.dumps`` writes for it.

    Element ``i`` is ``before + [t, t, ...] + after`` for the 0/1 row
    ``bits[i]`` (``t`` from the two equal-width ``tokens``; nothing when
    ``bits`` is None), followed by the text ``fragment(j)``, where ``j`` is
    the first row of the 2-D ``keys`` equal to ``keys[i]``.  The rows are
    fixed-width text written into one ``uint8`` buffer; each fragment is
    formatted once, however many elements share it.
    """
    pieces = []
    if bits is not None:
        n = len(bits)
        open_, close = before + b"[", b"]" + after + (b", " if keys is None else b"")
        cells = np.frombuffer(b"".join(t + b", " for t in tokens), dtype=np.uint8).reshape(2, -1)
        body = np.take(cells, bits, axis=0).reshape(n, bits.shape[1] * cells.shape[1])[:, :-2]
        rows = np.empty((n, len(open_) + body.shape[1] + len(close)), dtype=np.uint8)
        rows[:, : len(open_)] = np.frombuffer(open_, dtype=np.uint8)
        rows[:, len(open_) : -len(close)] = body
        rows[:, -len(close) :] = np.frombuffer(close, dtype=np.uint8)
        if keys is None:
            return b"[" + rows.tobytes()[:-2] + b"]"
        pieces.append(rows.view(f"S{rows.shape[1]}").ravel().astype(object))
    distinct, index = _distinct_rows(keys)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, index, np.arange(len(keys)))
    texts = np.array([f"{fragment(j)}, ".encode() for j in first.tolist()], dtype=object)
    pieces.append(texts[index])
    return b"[" + b"".join(np.stack(pieces, axis=1).ravel().tolist())[:-2] + b"]"


def _pattern_from_args(args, dim):
    if getattr(args, "groups", None) and getattr(args, "invariant", None):
        raise ValueError("--invariant and --groups are mutually exclusive")
    if getattr(args, "groups", None):
        return InvariancePattern(dim, parse_groups(args.groups))
    if getattr(args, "invariant", None):
        return InvariancePattern.single(dim, parse_coordinate_set(args.invariant))
    return InvariancePattern.trivial(dim)


def _cmd_nabla(args):
    pattern = _pattern_from_args(args, args.dim)
    vectors, ones = canonical_binary_vectors(pattern, cap=args.cap)
    sizes = binary_orbit_sizes(pattern, ones)
    order = group_order(pattern)

    def sizes_text(j):
        return f'{json.dumps(sizes[j])}, "stabilizer_size": {json.dumps(order // sizes[j])}}}'

    payload = {
        "dim": pattern.dim,
        "pattern": pattern.to_json_dict(),
        "count": len(vectors),
        "orbit_size_total": sum(sizes.tolist()),
        "rows": _json_list(vectors, before=b'{"k": ', after=b', "orbit_size": ', keys=ones, fragment=sizes_text),
    }

    def table():
        width = 3 * pattern.dim + 2
        yield f"{'k':<{width}} orbit stabilizer"
        for k, size in zip(vectors.tolist(), sizes.tolist()):
            yield f"{str(tuple(k)):<{width}} {size:>5} {order // size:>10}"
        yield f"count {len(vectors)}, orbit sizes sum {payload['orbit_size_total']}"

    _emit(args, payload, table())
    return 0


def _rule_payload(rule):
    """The JSON payload of a rule whose nodes all lie in ``{0, 1/2}^d``, as ``rule`` writes it."""
    half = rule.nodes == 0.5

    def weight_text(j):
        w = rule.weights[j].item()
        return json.dumps({"re": w.real, "im": w.imag}, sort_keys=True)

    return {
        "dim": rule.dim,
        "nodes": _json_list(half.view(np.uint8), (b"0.0", b"0.5")),
        "weights": _json_list(keys=rule.weights.view(np.uint64).reshape(-1, 2), fragment=weight_text),
    }


def _cmd_rule(args):
    if args.rectangle == args.folded:
        raise ValueError("choose exactly one of --rectangle / --folded")
    if args.rectangle:
        if args.invariant or args.groups:
            raise ValueError("--rectangle takes no --invariant or --groups")
        rule = rectangle_rule(args.dim, node_cap=args.cap)
    else:
        pattern = _pattern_from_args(args, args.dim)
        rule = folded_rectangle_rule(pattern, node_cap=args.cap)

    def table():
        yield f"{'node':<{8 * rule.dim}} weight"
        for node, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
            yield f"{str(tuple(node)):<{8 * rule.dim}} {w.real:.12g}"

    _emit(args, _rule_payload(rule), table())
    return 0


def _cmd_integrate(args):
    rule = _load_rule(args.rule)
    poly = FourierPolynomial.from_json_dict(_load_json(args.poly))
    value = apply_rule(rule, poly)
    payload = {"value": {"re": value.real, "im": value.imag}, "n_nodes": rule.n_nodes}
    _emit(args, payload, [f"value {value.real:.15g} {value.imag:+.15g}i"])
    return 0


def _cmd_wce(args):
    report = rectangle_worst_case_error(args.dim, args.alpha, args.tol)
    payload = {
        "dim": args.dim,
        "alpha": args.alpha,
        "closed_form": report.closed_form,
        "oracle_value": report.oracle_value,
        "tail_bound": report.tail_bound,
    }
    lines = [
        f"closed form  {report.closed_form:.15g}",
        f"oracle value {report.oracle_value:.15g}",
        f"tail bound   {report.tail_bound:.3g}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_certify(args):
    rule = _load_rule(args.rule)
    dim = rule.dim if args.dim is None else args.dim
    if dim != rule.dim:
        raise ValueError(f"--dim {dim} does not match rule dimension {rule.dim}")
    pattern = _pattern_from_args(args, dim)
    if args.gammas and not args.weighted:
        raise ValueError("--gammas requires --weighted")
    if args.weighted:
        if not args.gammas:
            raise ValueError("--weighted requires --gammas")
        schedule = WeightSchedule.from_json_dict(_load_json(args.gammas))
        cert = construct_weighted_certificate(rule, pattern, args.alpha, schedule)
    else:
        cert = construct_certificate(rule, pattern, args.alpha)
    payload = cert.to_json_dict()
    lines = [
        f"nodes {rule.n_nodes}, threshold {critical_node_count(pattern)}",
        f"rule value   |A(f)| = {abs(cert.rule_value):.3e}",
        f"integral     {cert.integral_value.real:.15g}",
        f"norm         {cert.norm_value:.15g}",
        "certificate valid: the rule cannot beat the guaranteed error",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_weights(args):
    pattern = _pattern_from_args(args, args.dim)
    schedule = WeightSchedule.from_json_dict(_load_json(args.gammas))
    ordering, mus = _ranked_weights(pattern, schedule)
    weights = mus.astype(np.float64)
    payload = {
        "dim": args.dim,
        "pattern": pattern.to_json_dict(),
        "ordering": _json_list(ordering),
        "weights": _json_list(
            keys=weights.view(np.uint64)[:, None], fragment=lambda j: json.dumps(weights.item(j))
        ),
    }
    if args.kappa is not None:
        sums = _power_sums(pattern, schedule, args.kappa, weights)
        payload["power_sum"] = {"exponent": args.kappa, **vars(sums)}

    def table():
        yield f"{'rank':>4} {'weight':>18}  k"
        for n, (k, w) in enumerate(zip(ordering.tolist(), weights.tolist())):
            yield f"{n:>4} {w:>18.12g}  {tuple(k)}"
        if args.kappa is not None:
            yield (
                f"power sum (exponent {args.kappa}): brute {sums.brute:.12g}, "
                f"closed {sums.closed:.12g}, closed form applicable: {sums.closed_form_applicable}"
            )

    _emit(args, payload, table())
    return 0


def _cmd_tract(args):
    profile = InvarianceProfile.from_json_dict(_load_json(args.profile))
    grid = []
    for part in args.st.split(";"):
        part = part.strip()
        if not part:
            continue
        s_str, t_str = part.split(",")
        grid.append((float(s_str), float(t_str)))
    report = evaluate_profile(profile, grid or ((1.0, 1.0),))
    payload = {
        "samples": [list(row) for row in report.profile.samples],
        "node_counts": [str(c) for c in report.node_counts],
        "free_counts": list(report.free_counts),
        "log_ratios": {
            f"{s},{t}": list(v) for (s, t), v in report.log_ratios.items()
        },
        "verdicts": dict(report.verdicts),
        "st_weak": {f"{s},{t}": v for (s, t), v in report.st_weak.items()},
        "notes": list(report.notes),
    }
    lines = [f"{'d':>5} {'inv':>5} {'free':>5} node-count"]
    for (d, i), c in zip(report.profile.samples, report.node_counts):
        lines.append(f"{d:>5} {i:>5} {d - i:>5} {c}")
    for name, verdict in report.verdicts.items():
        lines.append(f"{name}: {verdict}")
    for (s, t), verdict in report.st_weak.items():
        lines.append(f"weak(s={s}, t={t}): {verdict}")
    _emit(args, payload, lines)
    return 0


def _cmd_bench(args):
    dims = [int(v) for v in args.dims.split(",") if v.strip()]
    fractions = [float(v) for v in args.fractions.split(",") if v.strip()]
    rows = bench(dims, fractions, repetitions=args.reps, seed=args.seed)
    buffer = io.StringIO()
    fields = [
        "dim",
        "invariant_count",
        "nodes_full",
        "nodes_folded",
        "time_full_s",
        "time_folded_s",
        "speedup",
        "max_abs_diff",
    ]
    writer = csv.DictWriter(buffer, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_pattern_flags(parser):
    parser.add_argument(
        "--invariant",
        metavar="SPEC",
        help="single interchangeable block, e.g. '1-3,5'",
    )
    parser.add_argument(
        "--groups",
        metavar="SPEC",
        help="';'-separated blocks, e.g. '1-3;4,7'",
    )


def _add_output_flags(parser):
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--out", metavar="FILE", help="write output to FILE")


@functools.cache  # built once: building it costs about as much as a small request
def build_parser():
    parser = argparse.ArgumentParser(
        prog="symquad",
        description=(
            "Folded cubature rules, worst-case integration errors, and "
            "lower-bound certificates for permutation-invariant periodic functions."
        ),
        epilog=(
            "exit codes: 0 success; 1 bad input or numerical failure; "
            "2 certification refused (rule already has enough nodes)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nabla", help="enumerate canonical 0/1 vectors with orbit stats")
    p.add_argument("-d", "--dim", type=int, required=True)
    _add_pattern_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_nabla)

    p = sub.add_parser("rule", help="emit a rectangle or folded cubature rule")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("--rectangle", action="store_true")
    p.add_argument("--folded", action="store_true")
    _add_pattern_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_rule)

    p = sub.add_parser("integrate", help="apply a rule (JSON) to a polynomial (JSON)")
    p.add_argument("--rule", required=True, metavar="FILE")
    p.add_argument("--poly", required=True, metavar="FILE")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("wce", help="worst-case error of the rectangle rule")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_wce)

    p = sub.add_parser(
        "certify",
        help="construct a fooling certificate for a rule (exit 2 when refused)",
        epilog=(
            "exit codes: 0 certificate valid (lower bound witnessed); "
            "1 numerical failure; 2 refused because the rule has at least "
            "the critical node count (the folded-rule error bound is printed)."
        ),
    )
    p.add_argument("--rule", required=True, metavar="FILE")
    p.add_argument("-d", "--dim", type=int)
    _add_pattern_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--gammas", metavar="FILE", help="weight schedule JSON")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("weights", help="ordered effective weights and power sums")
    p.add_argument("-d", "--dim", type=int, required=True)
    _add_pattern_flags(p)
    p.add_argument("--gammas", required=True, metavar="FILE")
    p.add_argument("--kappa", type=float, help="also report the power sum")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("tract", help="screen tractability predicates on a profile")
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--st", default="1,1", metavar="GRID", help="e.g. '1,1;0.5,0.5'")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_tract)

    p = sub.add_parser("bench", help="time folded vs full rule applications (CSV)")
    p.add_argument("--dims", default="8,12,16", metavar="LIST")
    p.add_argument("--fractions", default="1.0,0.5", metavar="LIST")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RefusalError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    except (NullspaceError, CertificateError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, OverflowError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")  # RecursionError: JSON nested too deeply to parse
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
