"""``rule``, ``nabla`` and ``weights`` JSON equal ``json.dumps`` of the same payload, byte for byte.

The references are built from the library's own objects and written with
``json.dumps(..., sort_keys=True)``; the table references repeat the
line formats of ``--format table``.  A rule read back from ``rule``'s own
text equals, bit for bit, what ``json.loads`` makes of it, and any other
text gives what the ``json.loads`` route gives.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from symquad import cli
from symquad.cubature import CubatureRule, folded_rectangle_rule, rectangle_rule
from symquad.symmetry import InvariancePattern, binary_orbit_representatives, orbit_stats
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
    keys = values.view(np.uint64)[:, None]  # bit patterns keep -0.0 apart from 0.0

    def text(j):
        return json.dumps(values[j].item())

    assert cli._json_list(bits, (b"0.0", b"0.5")) == json.dumps((bits * 0.5).tolist()).encode()
    assert cli._json_list(keys=keys, fragment=text) == json.dumps(values.tolist()).encode()
    written = cli._json_list(bits, before=b'{"k": ', after=b', "v": ', keys=keys, fragment=lambda j: text(j) + "}")
    expected = [{"k": k, "v": v} for k, v in zip(bits.tolist(), values.tolist())]
    assert written == json.dumps(expected).encode()


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
