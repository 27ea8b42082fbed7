"""``rule``, ``nabla`` and ``weights`` JSON equal ``json.dumps`` of the same payload, byte for byte.

The references are built from the library's own objects and written with
``json.dumps(..., sort_keys=True)``; the table references repeat the
line formats of ``--format table``.  A rule read back from ``rule``'s own
text equals, bit for bit, what ``json.loads`` makes of it, and any other
text gives what the ``json.loads`` route gives.
"""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symquad import cli
from symquad.cubature import CubatureRule, folded_rectangle_rule, rectangle_rule
from symquad.fourier import FourierPolynomial, _distinct_rows
from symquad.symmetry import InvariancePattern, binary_orbit_representatives, orbit_stats, symmetrize
from symquad.weighted import WeightSchedule, order_weights, weight_power_sum


def reference(payload):
    return json.dumps({"schema_version": 1, **payload}, sort_keys=True) + "\n"


def emit(capsys, tmp_path, argv):
    """The command's stdout, checked equal to what it writes with ``--out``."""
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == text
    return text


def read_back(raw):
    """The rule read from ``rule``'s text ``raw``, checked bitwise against the json.loads route."""
    fast = cli._rule_from_writer_text(raw)
    assert fast is not None
    slow = CubatureRule.from_json_dict(json.loads(raw))
    assert fast.dim == slow.dim
    assert fast.nodes.shape == slow.nodes.shape
    assert np.array_equal(fast.nodes.view(np.uint64), slow.nodes.view(np.uint64))
    assert np.array_equal(fast.weights.view(np.uint64), slow.weights.view(np.uint64))
    return fast


def random_pattern(rng, dim, max_blocks):
    coords = list(range(1, dim + 1))
    rng.shuffle(coords)
    groups, pos = [], 0
    for _ in range(rng.randint(1, max_blocks)):
        size = rng.randint(1, 5)
        if pos + size > dim:
            break
        groups.append(coords[pos : pos + size])
        pos += size
    return InvariancePattern(dim, groups)


def flags(pattern):
    spec = ";".join(",".join(map(str, g)) for g in pattern.groups)
    return ["--groups", spec] if spec else []


def nabla_reference(pattern):
    rows = []
    for k in binary_orbit_representatives(pattern):
        stats = orbit_stats(k, pattern)
        rows.append({"k": list(k), "orbit_size": stats.orbit_size, "stabilizer_size": stats.stabilizer_size})
    return {
        "dim": pattern.dim,
        "pattern": pattern.to_json_dict(),
        "count": len(rows),
        "orbit_size_total": sum(r["orbit_size"] for r in rows),
        "rows": rows,
    }


def weights_reference(pattern, schedule, kappa=None):
    ordered = order_weights(pattern, schedule)
    payload = {
        "dim": pattern.dim,
        "pattern": pattern.to_json_dict(),
        "ordering": [list(k) for k in ordered.ordering],
        "weights": [float(w) for w in ordered.weights],
    }
    if kappa is not None:
        sums = weight_power_sum(pattern, schedule, kappa)
        payload["power_sum"] = {
            "exponent": kappa,
            "brute": sums.brute,
            "closed": sums.closed,
            "closed_form_applicable": sums.closed_form_applicable,
        }
    return payload


def random_gammas(rng, dim):
    return sorted((rng.choice([1, 1.0, 0.5, 0.3, 0.7, 0.1, 1e-3, 0.0]) for _ in range(dim)), reverse=True)


PATTERNS = [
    (dim, seed, blocks)
    for dim in range(1, 13)
    for seed, blocks in ((dim, 1), (100 + dim, 3))
]


@pytest.mark.parametrize("dim,seed,blocks", PATTERNS)
def test_folded_rule_and_nabla_match_json_dumps(capsys, tmp_path, dim, seed, blocks):
    pattern = random_pattern(random.Random(seed), dim, blocks)
    text = emit(capsys, tmp_path, ["rule", "--folded", "-d", str(dim), *flags(pattern)])
    assert text == reference(folded_rectangle_rule(pattern).to_json_dict())
    read_back(text.encode())
    text = emit(capsys, tmp_path, ["nabla", "-d", str(dim), *flags(pattern)])
    assert text == reference(nabla_reference(pattern))


@pytest.mark.parametrize("dim", range(1, 13))
def test_rectangle_rule_matches_json_dumps(capsys, tmp_path, dim):
    text = emit(capsys, tmp_path, ["rule", "--rectangle", "-d", str(dim)])
    assert text == reference(rectangle_rule(dim).to_json_dict())
    assert read_back(text.encode()).n_nodes == 2**dim


@pytest.mark.parametrize("dim,seed", [(dim, 200 + dim) for dim in range(1, 13)])
def test_weights_match_json_dumps(capsys, tmp_path, dim, seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, dim, 1)
    gammas = random_gammas(rng, dim)
    path = tmp_path / "gammas.json"
    path.write_text(json.dumps({"dim": dim, "gammas": gammas}))
    schedule = WeightSchedule(dim, gammas)
    argv = ["weights", "-d", str(dim), *flags(pattern), "--gammas", str(path)]
    assert emit(capsys, tmp_path, argv) == reference(weights_reference(pattern, schedule))
    kappa = rng.choice([0.5, 1.0, 2.5])
    text = emit(capsys, tmp_path, [*argv, "--kappa", repr(kappa)])
    assert text == reference(weights_reference(pattern, schedule, kappa))


def test_nabla_orbit_sizes_beyond_int64(capsys, tmp_path):
    pattern = InvariancePattern.full(100)
    text = emit(capsys, tmp_path, ["nabla", "-d", "100", "--invariant", "1-100"])
    payload = nabla_reference(pattern)
    assert max(r["orbit_size"] for r in payload["rows"]) > 2**63
    assert text == reference(payload)


def folded_reference(pattern):
    """``rule --folded``'s payload from one ``orbit_stats`` per canonical vector."""
    nodes, weights = [], []
    for k in binary_orbit_representatives(pattern):
        nodes.append([0.5 * b for b in k])
        weights.append({"re": orbit_stats(k, pattern).orbit_size / 2**pattern.dim, "im": 0.0})
    return {"dim": pattern.dim, "nodes": nodes, "weights": weights}


@pytest.mark.parametrize(
    "dim, groups",
    [
        (14, ((1, 2, 3), (9, 10, 11, 12))),
        (15, ((1, 4, 7), (2, 5), (13, 14, 15))),
        (16, ((1, 2, 3), (4, 5, 6))),
        (16, ((2, 9), (3, 4, 5, 6), (11, 12, 16))),
    ],
)
def test_large_folded_rule_nabla_and_weights_match_json_dumps(capsys, tmp_path, dim, groups):
    # 2,560 to 16,384 rows: several rows per weight class, and orbit-size texts of different widths
    pattern = InvariancePattern(dim, groups)
    text = emit(capsys, tmp_path, ["rule", "--folded", "-d", str(dim), *flags(pattern)])
    assert text == reference(folded_reference(pattern))
    assert emit(capsys, tmp_path, ["nabla", "-d", str(dim), *flags(pattern)]) == reference(nabla_reference(pattern))
    block = InvariancePattern(dim, groups[:1])  # weighted operations take one block
    gammas = random_gammas(random.Random(dim), dim)
    path = tmp_path / "gammas.json"
    path.write_text(json.dumps({"dim": dim, "gammas": gammas}))
    argv = ["weights", "-d", str(dim), *flags(block), "--gammas", str(path), "--kappa", "1.0"]
    assert emit(capsys, tmp_path, argv) == reference(weights_reference(block, WeightSchedule(dim, gammas), 1.0))


@pytest.mark.parametrize(
    "argv", [["rule", "--folded", "-d", "14"], ["rule", "--folded", "-d", "16", "--groups", "1-3;4-6"]]
)
def test_rule_json_peaks_below_three_times_its_length(argv):
    # the 0/1 rows, one buffer per list and one join: no float nodes, object arrays or per-element texts
    args = cli.build_parser().parse_args(argv)
    tracemalloc.start()
    try:
        text = args.func(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_folded_weights_beyond_the_float_range_of_the_orbit_sizes_are_correctly_rounded():
    # C(1100, j) and 2^1100 both exceed the float range; the smallest weights lie below 2^-1074 and round to 0
    args = cli.build_parser().parse_args(["rule", "--folded", "-d", "1100", "--invariant", "1-1100"])
    data = json.loads(args.func(args))
    ones = [row.count(0.5) for row in data["nodes"]]
    assert ones == list(range(1101))
    weights = [w["re"] for w in data["weights"]]
    assert weights == [float(Fraction(math.comb(1100, j), 2**1100)) for j in ones]
    assert all(w["im"] == 0.0 for w in data["weights"]) and weights.count(0.0) == 6


def test_weights_from_fractions(capsys, tmp_path, monkeypatch):
    dim = 7
    gammas = [Fraction(1), Fraction(2, 3), Fraction(2, 3), Fraction(1, 3), Fraction(1, 7), Fraction(1, 10), 0]
    monkeypatch.setattr(cli, "_load_json", lambda path: {"dim": dim, "gammas": gammas})
    pattern = InvariancePattern.single(dim, (2, 3, 5))
    schedule = WeightSchedule(dim, gammas)
    assert any(isinstance(w, Fraction) for w in order_weights(pattern, schedule).weights)
    argv = ["weights", "-d", str(dim), "--invariant", "2,3,5", "--gammas", "unused", "--kappa", "1.5"]
    assert emit(capsys, tmp_path, argv) == reference(weights_reference(pattern, schedule, 1.5))


def rule_table(rule):
    yield f"{'node':<{8 * rule.dim}} weight"
    for node, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
        yield f"{str(tuple(node)):<{8 * rule.dim}} {w.real:.12g}"


def nabla_table(payload):
    width = 3 * payload["dim"] + 2
    yield f"{'k':<{width}} orbit stabilizer"
    for r in payload["rows"]:
        yield f"{str(tuple(r['k'])):<{width}} {r['orbit_size']:>5} {r['stabilizer_size']:>10}"
    yield f"count {payload['count']}, orbit sizes sum {payload['orbit_size_total']}"


def weights_table(pattern, schedule, kappa):
    ordered = order_weights(pattern, schedule)
    sums = weight_power_sum(pattern, schedule, kappa)
    yield f"{'rank':>4} {'weight':>18}  k"
    for n, (k, w) in enumerate(zip(ordered.ordering, ordered.weights)):
        yield f"{n:>4} {float(w):>18.12g}  {tuple(k)}"
    yield (
        f"power sum (exponent {kappa}): brute {sums.brute:.12g}, "
        f"closed {sums.closed:.12g}, closed form applicable: {sums.closed_form_applicable}"
    )


@pytest.mark.parametrize("dim,seed", [(1, 1), (5, 2), (9, 3)])
def test_table_output_unchanged(capsys, tmp_path, dim, seed):
    rng = random.Random(seed)
    pattern = random_pattern(rng, dim, 1)
    table = ["--format", "table"]

    def lines(rows):
        return "\n".join(rows) + "\n"

    text = emit(capsys, tmp_path, ["rule", "--folded", "-d", str(dim), *flags(pattern), *table])
    assert text == lines(rule_table(folded_rectangle_rule(pattern)))
    text = emit(capsys, tmp_path, ["rule", "--rectangle", "-d", str(dim), *table])
    assert text == lines(rule_table(rectangle_rule(dim)))
    text = emit(capsys, tmp_path, ["nabla", "-d", str(dim), *flags(pattern), *table])
    assert text == lines(nabla_table(nabla_reference(pattern)))
    gammas = random_gammas(rng, dim)
    path = tmp_path / "gammas.json"
    path.write_text(json.dumps({"dim": dim, "gammas": gammas}))
    argv = ["weights", "-d", str(dim), *flags(pattern), "--gammas", str(path), "--kappa", "2.0", *table]
    assert emit(capsys, tmp_path, argv) == lines(weights_table(pattern, WeightSchedule(dim, gammas), 2.0))


@pytest.mark.parametrize("n", range(6))
def test_json_list_kernel_matches_json_dumps(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(n, int(rng.integers(1, 5))), dtype=np.uint8)
    values = np.array([0.0, -0.0, 0.5, 1e-300, -0.0, 3.0])[:n]
    classes, index = cli._classes(values)  # by bit pattern: -0.0 is kept apart from 0.0
    texts = [json.dumps(v).encode() for v in classes.tolist()]

    assert cli._rows_text(bits, (b"0.0", b"0.5")) == json.dumps((bits * 0.5).tolist()).encode()
    assert cli._rows_text(index=index, tails=texts) == json.dumps(values.tolist()).encode()
    written = cli._rows_text(bits, index=index, heads=[b'{"k": '], tails=[b', "v": ' + t + b"}" for t in texts])
    expected = [{"k": k, "v": v} for k, v in zip(bits.tolist(), values.tolist())]
    assert written == json.dumps(expected).encode()


def unique_dedupe_reference(keys, fragment):
    """JSON text of the list by the ``np.unique(axis=0)`` dedupe, and the distinct rows it formats."""
    rows, first, index = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    texts = [fragment(j) for j in first.tolist()]
    return ("[" + ", ".join(texts[i] for i in index.reshape(-1).tolist()) + "]").encode(), rows


SIGNED_ZEROS = np.array([0.0, -0.0, 1.5, 0.0, -0.0, 1.5, -0.0, 0.0])
COMPLEX_KEYS = np.array([0.5 + 0j, complex(-0.0, 0.0), complex(0.0, -0.0), 0.5, complex(-0.0, 0.0), 0j, 0.5])


@pytest.mark.parametrize(
    "values, fragment",
    [
        (SIGNED_ZEROS, lambda v: json.dumps(v)),
        (SIGNED_ZEROS[:1], lambda v: json.dumps(v)),
        (np.array([2.0, 1.0, 2.0, 1.0, 3.0, 1.0]), lambda v: json.dumps(v)),
        (COMPLEX_KEYS, lambda w: json.dumps({"re": w.real, "im": w.imag}, sort_keys=True)),
        (COMPLEX_KEYS[3:4], lambda w: json.dumps({"re": w.real, "im": w.imag}, sort_keys=True)),
        (np.array([]), lambda v: json.dumps(v)),
    ],
    ids=["signed-zeros", "single-row", "repeats-out-of-order", "complex", "complex-single-row", "empty"],
)
def test_json_list_dedupe_matches_np_unique(values, fragment):
    keys = values.view(np.uint64).reshape(len(values), values.itemsize // 8)  # bit patterns: -0.0 is not 0.0
    classes, index = cli._classes(values)
    expected, rows = unique_dedupe_reference(keys, lambda j: fragment(values[j].item()))
    # the classes are np.unique's rows, in its order, and place every input bitwise: each text is formatted once
    assert np.array_equal(classes.view(np.uint64).reshape(rows.shape), rows)
    assert np.array_equal(classes[index].view(np.uint64), values.view(np.uint64))
    written = cli._rows_text(index=index, tails=[fragment(v).encode() for v in classes.tolist()])
    assert written == expected
    assert written == json.dumps([json.loads(fragment(v)) for v in values.tolist()]).encode()


def test_json_list_dedupe_of_keys_without_columns():
    bits = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
    keys = np.zeros((3, 0), dtype=np.intp)  # ``nabla`` with no blocks: every row shares one tail
    distinct, index = _distinct_rows(keys)
    tails = [f', "v": {j}}}'.encode() for j in range(len(distinct))]
    written = cli._rows_text(bits, index=index, heads=[b'{"k": '], tails=tails)
    assert written == json.dumps([{"k": k, "v": 0} for k in bits.tolist()]).encode()
    assert len(unique_dedupe_reference(keys, str)[1]) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_text_refuses_values_that_are_not_json(value):
    with pytest.raises(ValueError):
        cli._json_text({"x": {"y": [value]}})


# ---------------------------------------------------------------------------
# reading a rule: ``rule``'s own text inverts exactly, any other text is read as json.loads reads it


def test_complex_and_signed_zero_weights_read_back():
    nodes = [[0.0, 0.5, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]
    weights = [0.25 + 0.5j, complex(-0.0, 0.0), complex(-0.0, -0.0), 1e-300 - 3j, complex(0.0, -0.0)]
    rule = CubatureRule(3, nodes, weights)
    raw = cli._json_text(cli._rule_payload(rule))
    assert raw == reference(rule.to_json_dict()).encode()
    read = read_back(raw)
    assert np.array_equal(read.nodes, rule.nodes)
    assert np.array_equal(read.weights.view(np.uint64), rule.weights.view(np.uint64))


def written_rule():
    raw = cli._json_text(cli._rule_payload(folded_rectangle_rule(InvariancePattern.single(4, (1, 2)))))
    assert raw.startswith(b'{"dim": 4, "nodes": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]')
    assert b'{"im": 0.0, "re": 0.0625}' in raw
    return raw


ALTERED = {
    "node-0.7": lambda raw: raw.replace(b"0.5", b"0.7", 1),
    "node-1.5": lambda raw: raw.replace(b"0.5", b"1.5", 1),
    "node-minus-zero": lambda raw: raw.replace(b"[0.0", b"[-0.0", 1),
    "whitespace-in-head": lambda raw: raw.replace(b", ", b",  ", 1),
    "whitespace-in-weights": lambda raw: raw.replace(b"}, {", b"},\n {", 1),
    "pretty-printed": lambda raw: json.dumps(json.loads(raw), indent=1, sort_keys=True).encode() + b"\n",
    "reordered-keys": lambda raw: json.dumps(dict(reversed(json.loads(raw).items()))).encode() + b"\n",
    "no-final-newline": lambda raw: raw[:-1],
    "crlf": lambda raw: raw[:-1] + b"\r\n",
    "row-one-token-short": lambda raw: raw.replace(b"[0.0, ", b"[", 1),
    "weight-missing": lambda raw: raw[: raw.rfind(b", {")] + b"]}\n",
    "weight-exponent": lambda raw: raw.replace(b"0.0625", b"6.25e-2", 1),
    "weight-integer": lambda raw: raw.replace(b'"im": 0.0', b'"im": 0', 1),
    "dim-0": lambda raw: raw.replace(b'"dim": 4', b'"dim": 0'),
    "dim-5000-digits": lambda raw: raw.replace(b'"dim": 4', b'"dim": ' + b"4" * 5000),
    "weight-true": lambda raw: raw.replace(b'"im": 0.0', b'"im": true', 1),
    "weight-nan": lambda raw: raw.replace(b'"im": 0.0', b'"im": NaN', 1),
    "weight-not-an-object": lambda raw: raw.replace(b'{"im": 0.0, "re": 0.0625}', b"{}", 1),
    "weight-string": lambda raw: raw.replace(b'"im": 0.0', b'"im": "0.0"', 1),
    "weight-beyond-float": lambda raw: raw.replace(b'"im": 0.0', b'"im": 1' + b"0" * 400, 1),
    "weight-deep-nesting": lambda raw: raw.replace(b'"im": 0.0', b'"im": ' + b"[" * 100000 + b"]" * 100000, 1),
    "truncated": lambda raw: raw[: len(raw) // 2],
    "utf8-bom": lambda raw: b"\xef\xbb\xbf" + raw,
    "empty-rule": lambda raw: b'{"dim": 4, "nodes": [], "schema_version": 1, "weights": []}\n',
}


@pytest.mark.parametrize("case", sorted(ALTERED))
def test_altered_writer_text_reads_as_json_loads_reads_it(capsys, tmp_path, monkeypatch, case):
    raw = ALTERED[case](written_rule())
    assert cli._rule_from_writer_text(raw) is None
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    rule.write_bytes(raw)
    poly.write_text('{"dim": 4, "terms": [{"k": [0, 0, 0, 0], "re": 1.0, "im": 0.0}, '
                    '{"k": [1, 1, 0, 2], "re": 0.5, "im": -0.25}]}')
    argv = ["integrate", "--rule", str(rule), "--poly", str(poly)]

    def outcome():
        return (cli.main(argv), *capsys.readouterr())

    got = outcome()
    monkeypatch.setattr(cli, "_rule_from_writer_text", lambda raw: None)
    assert got == outcome()
    code = got[0]
    if case in ("utf8-bom", "truncated", "dim-0", "dim-5000-digits", "weight-true", "weight-nan", "weight-beyond-float",
                "weight-deep-nesting"):
        assert code == 1
    if case in ("node-0.7", "whitespace-in-weights", "reordered-keys", "no-final-newline", "empty-rule"):
        assert code == 0


def round_trip(raw):
    """The rule ``json.loads`` reads from ``raw``, when ``rule`` would write it as ``raw``; else None."""
    try:
        rule = CubatureRule.from_json_dict(json.loads(raw))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    return rule if rule.n_nodes and cli._json_text(cli._rule_payload(rule)) == raw else None


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.5, -0.25, 1.0, 0.1, 1e16]),
    st.integers(-(2**12), 2**12).map(lambda m: m / 2**8),  # dyadic
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def written_rules(draw):
    """``rule``'s text of a rectangle or folded rule at d <= 6, its own weights or a few drawn complex values."""
    dim = draw(st.integers(1, 6))
    block = draw(st.sets(st.integers(1, dim), max_size=dim))
    rule = folded_rectangle_rule(InvariancePattern.single(dim, sorted(block))) if block else rectangle_rule(dim)
    if draw(st.booleans()):
        pool = draw(st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=4))
        picks = draw(st.lists(st.sampled_from(pool), min_size=rule.n_nodes, max_size=rule.n_nodes))
        rule = CubatureRule(dim, rule.nodes, picks)
    return cli._json_text(cli._rule_payload(rule))


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["substitute", "delete", "insert"]),
        st.integers(0, 2**16),
        st.one_of(st.sampled_from(b'05.,-e[]{}": 19\n'), st.integers(0, 255)),
    ),
    max_size=2,
)

#: ``rule``'s text of the two-node rectangle rule with the ``{`` that opens the weights replaced by a space
UNOPENED_WEIGHTS = cli._json_text(cli._rule_payload(rectangle_rule(1))).replace(b"[{", b"[ ")


@settings(max_examples=300, deadline=None)
@given(raw=written_rules(), edits=EDITS)
@example(raw=UNOPENED_WEIGHTS, edits=[])
def test_rule_reader_accepts_exactly_the_texts_that_write_back(raw, edits):
    # single-byte substitutions, deletions and insertions at positions taken modulo the text's length
    for op, at, byte in edits:
        at %= len(raw) + (op == "insert")
        cut = at + (op != "insert")
        raw = raw[:at] + (b"" if op == "delete" else bytes([byte])) + raw[cut:]
    expected = round_trip(raw)
    if expected is None:
        assert cli._rule_from_writer_text(raw) is None
    else:
        read_back(raw)


def test_a_long_weights_text_is_refused_without_copies_of_it():
    # 100,000 one-coordinate node rows and a 1 MB weights text without a separator
    raw = (b'{"dim": 1, "nodes": [' + b"[0.0], " * 99_999 + b'[0.0]], "schema_version": 1, "weights": [{'
           + b"0" * 1_000_000 + b"}]}\n")
    tracemalloc.start()
    try:
        assert cli._rule_from_writer_text(raw) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(raw)


@pytest.mark.parametrize("byte", [b" ", b";", b"]"])
def test_a_last_node_row_not_closed_by_the_writers_comma_is_refused(byte):
    raw = written_rule()
    at = raw.index(b']], "schema_version"') + 2
    assert cli._rule_from_writer_text(raw[:at] + byte + raw[at + 1 :]) is None


def test_a_rectangle_rule_text_is_read_without_full_size_temporaries():
    args = cli.build_parser().parse_args(["rule", "--rectangle", "-d", "15"])
    raw = args.func(args)
    tracemalloc.start()
    try:
        rule = cli._rule_from_writer_text(raw)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rule is not None and rule.n_nodes == 2**15
    assert peak - held < len(raw) / 2  # 3.7 MB of text; its nodes alone take 3.9 MB as floats


# ---------------------------------------------------------------------------
# reading a polynomial: the writer's layout is read in place, any other text as json.loads reads it


def poly_text(dim, terms):
    """``json.dumps`` of a polynomial's JSON dict with ``terms`` (key list, re, im), as the writer lays it out."""
    return json.dumps({"dim": dim, "terms": [{"k": k, "re": re, "im": im} for k, re, im in terms]}).encode()


def json_route(raw):
    """The polynomial ``json.loads`` and ``from_json_dict`` read from ``raw``, or None where they raise."""
    try:
        return FourierPolynomial.from_json_dict(json.loads(raw))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None


def assert_same_polynomial(got, expected):
    assert got.dim == expected.dim
    assert got.keys.tobytes() == expected.keys.tobytes()
    assert got.coeffs.tobytes() == expected.coeffs.tobytes()


KEYS = st.one_of(st.integers(-3, 3), st.sampled_from([0, 2**31 - 1, -(2**31 - 1)]))


@st.composite
def written_polys(draw):
    """A polynomial's text in the writer's layout at d <= 8, its keys and parts drawn (duplicates and zeros too)."""
    dim = draw(st.integers(1, 8))
    parts = st.one_of(PARTS, st.integers(-(2**60), 2**60))
    terms = draw(st.lists(st.tuples(st.lists(KEYS, min_size=dim, max_size=dim), parts, parts), min_size=1, max_size=6))
    if draw(st.booleans()):  # one key just beyond the cap
        terms[0][0][draw(st.integers(0, dim - 1))] = draw(st.sampled_from([2**31, -(2**31)]))
    return poly_text(dim, terms) + draw(st.sampled_from([b"", b"\n"]))


def two_terms(dim, first, second):
    return poly_text(dim, [(first, 1.0, 0.0), (second, 0.5, -0.25)])


@settings(max_examples=300, deadline=None)
@given(raw=written_polys(), edits=EDITS)
@example(raw=two_terms(3, [1, 2], [1, 2, 3, 4]), edits=[])  # d - 1 and d + 1 keys: d + 2 numbers a term on average
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"[1, 2]", b"[1, ]2"), edits=[])  # the gaps joined are the writer's
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"[1,", b"[01,"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"[1,", b"[-0,"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"[1,", b"[1.0,"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"1.0", b"+1"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"1.0", b"1."), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"0.5", b".5"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"1.0", b"NaN"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"1.0", b"Infinity"), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"1.0", b"1e999"), edits=[])
@example(raw=two_terms(2, [1, 2], [1, 2]), edits=[])
@example(raw=two_terms(2, [1, 2], [3, 4]).replace(b"[3,", b"[18446744073709551617,"), edits=[])  # 2^64 + 1: > 10 digits
@example(raw=poly_text(2, [([1, 2], 0.5, 0.0), ([3, 4], 0.5, 0.0)]).replace(b'0.5, "im": 0.0}]', b'5e-1, "im": 0.0}]'),
         edits=[])  # one value spelled two ways
@example(raw=poly_text(2, [([0, k], re, 1.0) for k, re in enumerate([-0.0, 0.0, -0.0, 0.0])]), edits=[])  # apart
@example(raw=poly_text(2, [([1, 2], 1.0, 0.0), ([3, 4], 1.0, 0.0)]).replace(b"1.0", b"1e999"), edits=[])  # one text
@example(raw=poly_text(2, [([3, 4], 0.5, -0.25), ([1, 2], 1.0, 0.0)]), edits=[])  # the writer's terms reversed
@example(raw=poly_text(2, [([3, 4], 1.0, 0.0), ([1, 2], 0.5, 0.0), ([3, 4], 0.25, 0.0)]), edits=[])  # not adjacent
def test_poly_reader_agrees_with_json_or_declines(raw, edits):
    for op, at, byte in edits:
        at %= len(raw) + (op == "insert")
        raw = raw[:at] + (b"" if op == "delete" else bytes([byte])) + raw[at + (op != "insert") :]
    got, expected = cli._poly_from_writer_text(raw), json_route(raw)
    if expected is None:
        assert got is None
    elif got is not None:
        assert_same_polynomial(got, expected)
    if expected is not None and raw.removesuffix(b"\n") == json.dumps(expected.to_json_dict()).encode():
        assert got is not None  # the writer's own text is read in place


@pytest.mark.parametrize("text", [b"[-0, 2]", b"[1, -0]"])
def test_poly_reader_reads_minus_zero_keys_as_zero(text):
    raw = two_terms(2, [1, 2], [3, 4]).replace(b"[1, 2]", text)
    got = cli._poly_from_writer_text(raw)
    assert got is not None
    assert_same_polynomial(got, json_route(raw))


def written_poly():
    poly = FourierPolynomial(4, {(0, 0, 0, 0): 1.0, (1, 1, 0, 2): 0.5 - 0.25j, (-2, 0, 3, 0): 0.125j})
    raw = json.dumps(poly.to_json_dict()).encode()
    assert_same_polynomial(cli._poly_from_writer_text(raw), poly)
    return raw


ALTERED_POLY = {
    "pretty-printed": lambda raw: json.dumps(json.loads(raw), indent=1).encode(),
    "sort-keys": lambda raw: FourierPolynomial.from_json(raw).to_json().encode(),
    "utf8-bom": lambda raw: b"\xef\xbb\xbf" + raw,
    "extra-member": lambda raw: raw.replace(b'"re": 0.5,', b'"re": 0.5, "note": 1,'),
    "value-true": lambda raw: raw.replace(b'"re": 0.5', b'"re": true'),
    "value-null": lambda raw: raw.replace(b'"re": 0.5', b'"re": null'),
    "value-string": lambda raw: raw.replace(b'"re": 0.5', b'"re": "0.5"'),
    "truncated": lambda raw: raw[: len(raw) // 2],
    "no-terms": lambda raw: b'{"dim": 4, "terms": []}',
}


@pytest.mark.parametrize("case", sorted(ALTERED_POLY))
def test_altered_poly_text_integrates_as_json_loads_reads_it(capsys, tmp_path, monkeypatch, case):
    raw = ALTERED_POLY[case](written_poly())
    assert cli._poly_from_writer_text(raw) is None
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    rule.write_bytes(written_rule())
    poly.write_bytes(raw)
    argv = ["integrate", "--rule", str(rule), "--poly", str(poly)]

    def outcome():
        return (cli.main(argv), *capsys.readouterr())

    got = outcome()
    monkeypatch.setattr(cli, "_poly_from_writer_text", lambda raw: None)
    assert got == outcome()
    assert got[0] == (1 if case in ("utf8-bom", "value-true", "value-null", "value-string", "truncated") else 0)


def test_a_workload_shaped_polynomial_is_read_in_place():
    # every frequency at d = 16 with at most two nonzero entries in [-3, 3], symmetrized over a block of 8
    keys = set()
    for i, j in itertools.combinations(range(16), 2):
        for a, b in itertools.product(range(-3, 4), repeat=2):
            keys.add(tuple(a if m == i else b if m == j else 0 for m in range(16)))
    rng = np.random.default_rng(1)
    terms = dict(zip(sorted(keys), rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))))
    poly = symmetrize(FourierPolynomial(16, terms), InvariancePattern.single(16, range(1, 9)))
    assert len(poly) > 4000
    data = poly.to_json_dict()
    raw = json.dumps(data).encode()
    reversed_terms = json.dumps({**data, "terms": data["terms"][::-1]}).encode()  # read through the sort
    for text in (raw, raw + b"\n", reversed_terms):
        got = cli._poly_from_writer_text(text)
        assert got is not None
        assert_same_polynomial(got, poly)


@pytest.mark.parametrize("keys", [[[0, 1], [0, 1], [1, 0]], [[0, 1], [1, 0], [0, 1]]], ids=["adjacent", "apart"])
def test_the_poly_reader_declines_a_duplicated_key_adjacent_or_not(keys):
    terms = [(k, 1.0 + j, 0.0) for j, k in enumerate(keys)]
    assert cli._poly_from_writer_text(poly_text(2, terms)) is None
    terms[keys.index([0, 1], 1)] = ([2, 2], 5.0, 0.0)  # the same text with distinct keys is read in place
    assert cli._poly_from_writer_text(poly_text(2, terms)).support() == ((0, 1), (1, 0), (2, 2))


def test_load_reads_the_writers_files_in_place_and_any_other_once_through_load_json(capsys, tmp_path, monkeypatch):
    calls = []
    load_json = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: calls.append(path) or load_json(path))
    files = {}
    for name, raw in (("rule", written_rule()), ("poly", written_poly())):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_bytes(raw)
        files[f"pretty-{name}"] = tmp_path / f"pretty-{name}.json"
        files[f"pretty-{name}"].write_bytes(json.dumps(json.loads(raw), indent=1).encode())

    def integrate(rule, poly):
        calls.clear()
        code = cli.main(["integrate", "--rule", str(files[rule]), "--poly", str(files[poly])])
        return code, capsys.readouterr(), list(calls)

    code, (out, err), read = integrate("rule", "poly")
    assert (code, err, read) == (0, "", [])  # the writer's texts never reach _load_json
    assert integrate("pretty-rule", "poly") == (0, (out, ""), [str(files["pretty-rule"])])
    assert integrate("rule", "pretty-poly") == (0, (out, ""), [str(files["pretty-poly"])])
