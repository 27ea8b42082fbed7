"""Command-line front end.

Machine output is JSON with a top-level ``schema_version``; ``--format
table`` switches to aligned text for humans.  Exit codes: 0 on success,
1 on bad input or numerical failure, and 2 when certification is refused
because the rule already has enough nodes (the folded-rule error bound is
printed instead).  Each ``_cmd_*`` returns the bytes of its output and
``main`` writes them, to ``--out`` or to standard output.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys

import numpy as np

from .cubature import (
    CubatureRule,
    _folded_classes,
    apply_rule,
    bench,
    rectangle_worst_case_error,
)
from .errors import CertificateError, NullspaceError, RefusalError
from .fooling import construct_certificate
from .fourier import FourierPolynomial, _classes, _from_rows, require_dimension
from .symmetry import (
    DEFAULT_ENUMERATION_CAP,
    InvariancePattern,
    _binary_orbit_size_classes,
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
    """``json.load`` of the file at ``path``, a text it cannot decode refused with a message that starts with ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON, an int of over 4,300 digits, too deep
            raise ValueError(f"{path}: {exc}") from exc


def _load(path, reader, from_json_dict):
    """``reader`` of the bytes of the file at ``path``, or, when it gives None, ``from_json_dict(_load_json(path))``."""
    with open(path, "rb") as handle:
        out = reader(handle.read())
    return from_json_dict(_load_json(path)) if out is None else out


_RULE_HEAD = re.compile(rb'\{"dim": ([1-9][0-9]{0,8}), "nodes": \[')
_WEIGHTS_HEAD = b' "schema_version": 1, "weights": [{'

#: Bytes of text that ``_rule_from_writer_text`` compares at a time.
_CHUNK_BYTES = 1 << 18


def _rule_from_writer_text(raw):
    """The rule whose ``rule`` output is the bytes ``raw``, or None.

    A rule is returned exactly when ``_json_text(_rule_payload(rule)) ==
    raw``, which is checked where the bytes lie instead of by writing the
    rule again.  The ``n`` node rows are ``5 d + 2`` bytes wide, and each
    must equal the row ``[0.0, ..., 0.0], `` except that the digit of a
    token may be ``5`` (the coordinate ``0.5``) and the last row ends in
    ``],``.  ``_WEIGHTS_HEAD`` follows them.  The weights are split on
    ``}, {`` (or compared in place with ``n`` copies of the first, when
    they are one value); each distinct weight text is parsed once and must
    be the writer's text (``_complex_text``) of the value it parses to.
    Since ``json.dumps`` writes every float64 so that it reads back as
    itself, ``json.loads`` would then have given the same values, signed
    zeros included.  Rows and copies are compared at most ``_CHUNK_BYTES``
    at a time, so no temporary grows with the text.  Any other text, or
    any failure on the way, gives None.
    """
    head = _RULE_HEAD.match(raw)
    split = raw.find(_WEIGHTS_HEAD, head.end()) if head else -1
    if split < 0 or not raw.endswith(b"}]}\n"):
        return None
    dim, start = int(head.group(1)), head.end()
    n, rem = divmod(split - start, 5 * dim + 2)
    if rem or not n:
        return None
    lo, hi = split + len(_WEIGHTS_HEAD), len(raw) - 4  # the weights text, from inside its first { to its last }
    cut = raw.find(b"}, {", lo, hi)
    first = raw[lo : hi if cut < 0 else cut]
    unit = first + b"}, {"
    uniform = hi - lo == n * len(unit) - 4
    if uniform:  # one weight text throughout, as in a rectangle rule: compared in place with copies of it
        copies = unit * max(1, min(n, _CHUNK_BYTES // len(unit)))
        uniform = all(raw.startswith(copies[: hi - at], at) for at in range(lo, hi, len(copies)))
    fragments = [first] if uniform else raw[lo:hi].split(b"}, {")
    if not uniform and len(fragments) != n:
        return None
    half = _half_grid_rows(raw, start, n, dim)
    if half is None:
        return None
    distinct = dict.fromkeys(fragments)
    values = np.empty(len(distinct), dtype=np.complex128)
    try:
        for j, fragment in enumerate(distinct):
            text = b"{" + fragment + b"}"
            value = json.loads(text)
            values[j] = z = complex(value["re"], value["im"])
            if _complex_text(z).encode() != text:
                return None
            distinct[fragment] = j
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    weights = values.repeat(n) if uniform else values[np.fromiter(map(distinct.__getitem__, fragments), np.intp, n)]
    return CubatureRule(dim, half * 0.5, weights)


def _half_grid_rows(raw, start, n, dim):
    """The ``n`` node rows that ``rule`` writes from ``raw[start]`` as a boolean array of their 0.5 coordinates, or None.

    Each byte must be that of a row of ``0.0`` tokens or of one of ``0.5``
    tokens, except that the last row ends in ``],``; the rows are compared
    at most ``_CHUNK_BYTES`` at a time.
    """
    width = 5 * dim + 2
    end = start + n * width - 2  # the last row ends in "]," where the others end in ", "
    if raw[end : end + 2] != b"],":
        return None
    row = b"[" + b", ".join([b"0.0"] * dim) + b"], "
    zeros, fives = (np.frombuffer(r * max(1, min(n, _CHUNK_BYTES // width)), np.uint8) for r in (row, row.replace(b"0.0", b"0.5")))
    for at in range(start, end, len(zeros)):
        part = np.frombuffer(raw, np.uint8, min(len(zeros), end - at), at)
        wrong = part != zeros[: len(part)]
        wrong &= part != fives[: len(part)]
        if wrong.any():
            return None
    return np.frombuffer(raw, np.uint8, n * width, start).reshape(n, width)[:, 3::5] == ord("5")


_POLY_HEAD = re.compile(rb'\{"dim": ([1-9][0-9]{0,8}), "terms": \[\{"k": \[')
_TERM_GAPS = (b'], "re": ', b', "im": ', b'}, {"k": [')  # after a term's last key, its re and its im


def _poly_from_writer_text(raw):
    """The polynomial whose ``json.dumps(poly.to_json_dict())`` (with at most one final ``\\n``) is ``raw``, or None.

    The numbers of the terms list are the runs of number bytes (digits,
    ``-+.``, and ``e`` or ``E`` after a digit, so not the ``e`` of
    ``"re"``).  The gaps between them are checked one term period at a
    time: their lengths, then their bytes, must be the writer's, so every
    term holds ``d`` keys, then ``re`` and ``im``.  Keys must read
    ``-?(0|[1-9][0-9]*)`` in at most 10 digits, parsed in ``int64``.  Each
    distinct ``re ... im`` text is parsed once, by one ``json.loads`` of
    their list, as ``from_json_dict`` sets them; keys and values then pass
    the constructor's gate, ``fourier._from_rows``.  Any other text, a
    refusal of the gate or any failure on the way gives None, and
    ``json.loads`` then reads the text.
    """
    head = _POLY_HEAD.match(raw)
    start, stop = head.end() if head else len(raw), len(raw) - 3 - raw.endswith(b"\n")
    if stop <= start or raw[stop : stop + 3] != b"}]}":
        return None
    dim, body = int(head.group(1)), np.frombuffer(raw, np.uint8, stop - start, start)
    digit = body - np.uint8(48) <= 9
    num = digit | (body == ord("-")) | (body == ord("+")) | (body == ord("."))
    num[1:] |= ((body[1:] | 32) == ord("e")) & digit[:-1]
    edges = np.flatnonzero(num[1:] != num[:-1]) + 1
    t, rem = divmod(len(edges) // 2 + 1, dim + 2)
    if not (num[0] and num[-1]) or rem or not t:
        return None
    starts, ends = np.append(0, edges[1::2]).reshape(t, -1), np.append(edges[::2], len(body)).reshape(t, -1)
    # one term period at a time, the last term's missing separator padded: the gap lengths, then the gaps' bytes
    period, pad = np.frombuffer(b", " * (dim - 1) + b"".join(_TERM_GAPS), np.uint8), len(_TERM_GAPS[-1])
    gaps = np.append(starts.ravel()[1:] - ends.ravel()[:-1], pad).reshape(t, -1)
    if (gaps != [2] * (dim - 1) + [*map(len, _TERM_GAPS)]).any():
        return None
    skeleton = np.empty((t, len(period)), np.uint8)
    skeleton[-1, -pad:] = period[-pad:]
    np.compress(~num, body, out=skeleton.reshape(-1)[:-pad])
    if (skeleton != period).any():
        return None
    ks, ke = starts[:, :dim].ravel(), ends[:, :dim].ravel()
    neg = body[ks] == ord("-")
    ks = ks + neg  # the first digit
    n = ke - ks
    if n.min() < 1 or n.max() > 10:
        return None
    cols = np.arange(-n.max(), 0)
    # each key's last bytes, right-aligned (clipped at the text's start), and the digits beyond a key's own zeroed
    digits = body.take(ke[:, None] + cols, mode="clip") - np.uint8(48)
    digits[-cols > n[:, None]] = 0
    if (digits > 9).any() or ((body[ks] == ord("0")) & (n > 1)).any():
        return None
    value = digits @ 10 ** -(cols + 1)
    keys = np.where(neg, -value, value).reshape(t, dim)
    spans = [raw[a:b] for a, b in zip((starts[:, dim] + start).tolist(), (ends[:, dim + 1] + start).tolist())]
    distinct = dict.fromkeys(spans)  # from re to im; each distinct text is parsed once
    try:
        parts = json.loads(b"[" + b", ".join(distinct).replace(b', "im": ', b", ") + b"]")
        values = np.empty(len(distinct), dtype=np.complex128)
        values.real, values.imag = parts[0::2], parts[1::2]
        if len(values) < t:  # repeated texts, as on the orbits of an invariant integrand
            values = values[np.fromiter(map(dict(zip(distinct, range(t))).__getitem__, spans), np.intp, t)]
        return _from_rows(dim, keys, values)
    except (ValueError, OverflowError):  # not a JSON number, beyond the float range, or refused by the gate
        return None


def _json_text(payload):
    """``json.dumps({"schema_version": 1, **payload}, sort_keys=True) + "\\n"``, as bytes joined once."""
    return b"".join([b"{", *_json_members({"schema_version": SCHEMA_VERSION, **payload}), b"}\n"])


def _json_members(mapping):
    """The text between the braces of ``json.dumps(mapping, sort_keys=True)``, as ``bytes`` pieces (``str`` keys).

    A ``bytes`` value is JSON text and is taken as it stands; every other
    value goes through ``json.dumps``, which refuses NaN and the infinities
    (they are not JSON) with a ``ValueError``.
    """
    pieces = []
    for key, value in sorted(mapping.items()):
        text = value if isinstance(value, bytes) else json.dumps(value, sort_keys=True, allow_nan=False).encode()
        pieces += (b", ", json.dumps(key).encode(), b": ", text)
    return pieces[1:]


def _output(args, payload, table_lines):
    """The bytes of a command's output: the JSON text of the payload (called first if callable), or the table lines."""
    if args.format == "table":
        return ("\n".join(table_lines) + "\n").encode()
    return _json_text(payload() if callable(payload) else payload)


def _cells(texts):
    """The texts as the rows of one ``uint8`` array, shorter ones padded with NUL bytes."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=np.uint8).reshape(len(texts), width)


def _rows_text(bits=None, tokens=(b"0", b"1"), index=None, heads=(b"",), tails=(b"",)):
    """JSON text (``bytes``) of the list of ``heads[c] + [t, t, ...] + tails[c]``, one per row.

    Row ``i`` has ``c = index[i]`` and ``t = tokens[b]`` for each ``b`` in ``bits[i]`` (no ``[...]`` when
    ``bits`` is None); a text that is the same for every row is a head or tail with one class.  The rows lie
    in one ``uint8`` buffer: a template row is broadcast, the bytes in which a token differs from
    ``tokens[0]`` are added where ``bits`` takes it, and the heads and tails of more than one class go in by
    ``index``.  Shorter texts are padded with NULs (``json.dumps`` writes none), dropped if any are.
    """
    n = len(index if bits is None else bits)
    if not n:
        return b"[]"
    tokens, heads, tails = _cells(tokens), _cells(heads), _cells(tails)
    m = 0 if bits is None else bits.shape[1]
    digits = b"" if bits is None else b"[" + b", ".join([tokens[0].tobytes()] * m) + b"]"
    template = heads[0].tobytes() + digits + tails[0].tobytes() + b", "
    out = np.empty(n * len(template) + 1, dtype=np.uint8)
    out[0] = ord("[")
    rows = out[1:].reshape(n, len(template))
    rows[:] = np.frombuffer(template, dtype=np.uint8)
    start, step = heads.shape[1] + 1, tokens.shape[1] + 2
    for t in range(1, len(tokens) if m else 0):
        hit, delta = bits == t, tokens[t] - tokens[0]  # uint8 differences wrap, and so do the sums
        for p in np.flatnonzero(delta).tolist():
            rows[:, start + p :: step][:, :m] += hit * delta[p]
    if len(heads) > 1:
        rows[:, : heads.shape[1]] = heads[index]
    if len(tails) > 1:
        rows[:, -2 - tails.shape[1] : -2] = tails[index]
    out[-2] = ord("]")  # over the last row's ", "
    text, padded = out[:-1].tobytes(), 0 in tokens or 0 in heads or 0 in tails
    del out, rows  # freed before the text without NULs is made
    return text.replace(b"\0", b"") if padded else text


def _pattern_from_args(args, dim):
    if args.groups is not None and args.invariant is not None:
        raise ValueError("--invariant and --groups are mutually exclusive")
    if args.groups is not None:
        flag, spec = "--groups", args.groups
    elif args.invariant is not None:
        flag, spec = "--invariant", args.invariant
    else:
        return InvariancePattern.trivial(dim)
    # each number is checked before the spec is parsed, which builds a range whole ("1-10000000": 10^7 ints)
    outside = [n for n in map(int, re.findall(r"\d+", spec)) if not 1 <= n <= dim]
    if outside:
        raise ValueError(f"coordinate {outside[0]} outside 1..{require_dimension(dim)}")
    groups = parse_groups(spec) if flag == "--groups" else (parse_coordinate_set(spec),)
    if not any(groups):  # a spec that is given names at least one coordinate
        raise ValueError(f"{flag} {spec!r} names no coordinate")
    return InvariancePattern(dim, groups)


def _cmd_nabla(args):
    pattern = _pattern_from_args(args, args.dim)
    vectors, ones = canonical_binary_vectors(pattern, cap=args.cap)
    sizes, index = _binary_orbit_size_classes(pattern, ones)
    sizes, counts, order = sizes.tolist(), np.bincount(index, minlength=len(sizes)).tolist(), group_order(pattern)
    payload = {
        "dim": pattern.dim,
        "pattern": pattern.to_json_dict(),
        "count": len(vectors),
        "orbit_size_total": sum(size * count for size, count in zip(sizes, counts)),
        "rows": _rows_text(vectors, index=index, heads=[b'{"k": '], tails=[
            f', "orbit_size": {size}, "stabilizer_size": {order // size}}}'.encode() for size in sizes]),
    }

    def table():
        width = 3 * pattern.dim + 2
        yield f"{'k':<{width}} orbit stabilizer"
        for k, size in zip(vectors.tolist(), map(sizes.__getitem__, index.tolist())):
            yield f"{str(tuple(k)):<{width}} {size:>5} {order // size:>10}"
        yield f"count {len(vectors)}, orbit sizes sum {payload['orbit_size_total']}"

    return _output(args, payload, table())


def _complex_text(z):
    """``json.dumps({"re": z.real, "im": z.imag}, sort_keys=True)`` of a finite ``z``: each part as its ``repr``."""
    return f'{{"im": {z.imag!r}, "re": {z.real!r}}}'


def _complex_list(values, index):
    """JSON text of ``[{"re": z.real, "im": z.imag} for z in values[index]]`` (finite)."""
    return _rows_text(index=index, tails=[_complex_text(z).encode() for z in values.tolist()])


def _rule_payload_from(dim, bits, weights, index):
    """The JSON payload, as ``rule`` writes it, of nodes ``bits / 2`` (0/1 rows) and weights ``weights[index]``."""
    return {"dim": dim, "nodes": _rows_text(bits, (b"0.0", b"0.5")), "weights": _complex_list(weights, index)}


def _rule_payload(rule):
    """The JSON payload of a rule whose nodes all lie in ``{0, 1/2}^d``, as ``rule`` writes it."""
    return _rule_payload_from(rule.dim, (rule.nodes == 0.5).view(np.uint8), *_classes(rule.weights))


def _cmd_rule(args):
    if args.rectangle == args.folded:
        raise ValueError("choose exactly one of --rectangle / --folded")
    if args.rectangle:
        if args.invariant is not None or args.groups is not None:
            raise ValueError("--rectangle takes no --invariant or --groups")
        pattern = InvariancePattern.trivial(args.dim)
    else:
        pattern = _pattern_from_args(args, args.dim)
    vectors, index, weights = _folded_classes(pattern, args.cap)  # 0/1 rows: float nodes only for the table

    def table():
        yield f"{'node':<{8 * pattern.dim}} weight"
        for node, w in zip((vectors * 0.5).tolist(), weights[index].tolist()):
            yield f"{str(tuple(node)):<{8 * pattern.dim}} {w:.12g}"

    return _output(args, lambda: _rule_payload_from(pattern.dim, vectors, weights, index), table())


def _cmd_integrate(args):
    rule = _load(args.rule, _rule_from_writer_text, CubatureRule.from_json_dict)
    poly = _load(args.poly, _poly_from_writer_text, FourierPolynomial.from_json_dict)
    value = apply_rule(rule, poly)
    payload = {"value": {"re": value.real, "im": value.imag}, "n_nodes": rule.n_nodes}
    return _output(args, payload, [f"value {value.real:.15g} {value.imag:+.15g}i"])


def _cmd_wce(args):
    report = rectangle_worst_case_error(args.dim, args.alpha, args.tol)
    payload = {"dim": args.dim, "alpha": args.alpha, **dataclasses.asdict(report)}
    lines = [
        f"closed form  {report.closed_form:.15g}",
        f"oracle value {report.oracle_value:.15g}",
        f"tail bound   {report.tail_bound:.3g}",
    ]
    return _output(args, payload, lines)


def _certificate_payload(cert):
    """``cert.to_json_dict()`` with its polynomial (keys in ``{-1, 0, 1}^d``), mode order and combination as text."""
    poly = cert.polynomial
    values, index = _classes(poly.coeffs)
    terms = _rows_text(
        poly.keys + 1, (b"-1", b"0", b"1"), index,
        [f'{{"im": {z.imag!r}, "k": '.encode() for z in values.tolist()],
        [f', "re": {z.real!r}}}'.encode() for z in values.tolist()],
    )
    return cert._json_dict(
        b"".join([b"{", *_json_members(poly._json_dict(terms)), b"}"]),
        _rows_text(np.array(cert.mode_order)),
        _complex_list(*_classes(cert.solution.coefficients)),
    )


def _cmd_certify(args):
    rule = _load(args.rule, _rule_from_writer_text, CubatureRule.from_json_dict)
    dim = rule.dim if args.dim is None else args.dim
    if dim != rule.dim:
        raise ValueError(f"--dim {dim} does not match rule dimension {rule.dim}")
    pattern = _pattern_from_args(args, dim)
    if bool(args.gammas) != args.weighted:
        raise ValueError("--gammas requires --weighted" if args.gammas else "--weighted requires --gammas")
    if args.weighted:
        schedule = WeightSchedule.from_json_dict(_load_json(args.gammas))
        cert = construct_weighted_certificate(rule, pattern, args.alpha, schedule)
    else:
        cert = construct_certificate(rule, pattern, args.alpha)
    lines = [
        f"nodes {rule.n_nodes}, threshold {critical_node_count(pattern)}",
        f"rule value   |A(f)| = {abs(cert.rule_value):.3e}",
        f"integral     {cert.integral_value.real:.15g}",
        f"norm         {cert.norm_value:.15g}",
        "certificate valid: the rule cannot beat the guaranteed error",
    ]
    return _output(args, lambda: _certificate_payload(cert), lines)


def _cmd_weights(args):
    pattern = _pattern_from_args(args, args.dim)
    schedule = WeightSchedule.from_json_dict(_load_json(args.gammas))
    ordering, mus = _ranked_weights(pattern, schedule)
    distinct, index = _classes(mus.astype(np.float64))
    payload = {
        "dim": args.dim,
        "pattern": pattern.to_json_dict(),
        "ordering": _rows_text(ordering),
        "weights": _rows_text(index=index, tails=[json.dumps(w).encode() for w in distinct.tolist()]),
    }
    if args.kappa is not None:
        sums = _power_sums(pattern, schedule, args.kappa, distinct, index)
        payload["power_sum"] = {"exponent": args.kappa, **vars(sums)}

    def table():
        yield f"{'rank':>4} {'weight':>18}  k"
        for n, (k, w) in enumerate(zip(ordering.tolist(), distinct[index].tolist())):
            yield f"{n:>4} {w:>18.12g}  {tuple(k)}"
        if args.kappa is not None:
            yield (
                f"power sum (exponent {args.kappa}): brute {sums.brute:.12g}, "
                f"closed {sums.closed:.12g}, closed form applicable: {sums.closed_form_applicable}"
            )

    return _output(args, payload, table())


def _cmd_tract(args):
    pairs = [part.split(",") for part in args.st.split(";") if part.strip()]
    bad = [",".join(pair) for pair in pairs if len(pair) != 2]
    if bad:
        raise ValueError(f"--st part {bad[0].strip()!r} is not an 's,t' pair")
    grid = [(float(s), float(t)) for s, t in pairs]
    profile = InvarianceProfile.from_json_dict(_load_json(args.profile))
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
    return _output(args, payload, lines)


def _cmd_bench(args):
    dims = [int(v) for v in args.dims.split(",") if v.strip()]
    fractions = [float(v) for v in args.fractions.split(",") if v.strip()]
    rows = bench(dims, fractions, repetitions=args.reps, seed=args.seed)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=rows[0])
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().encode()


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


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors raise ``ValueError``, so ``main`` reports them (exit 1)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # built once: building it costs about as much as a small request
def build_parser():
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        data = args.func(args)
        if args.out:
            with open(args.out, "wb") as handle:
                handle.write(data)
        else:
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
        return 0
    except RefusalError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    except (NullspaceError, CertificateError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, OverflowError, RecursionError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")  # RecursionError: JSON nested too deeply
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
