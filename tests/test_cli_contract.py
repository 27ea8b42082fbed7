"""Contract of ``nabla``, ``rule`` and ``weights``, whose JSON ``cli._rows_text`` writes, and of ``integrate``,
``certify``, ``wce``, ``tract`` and ``bench``.

Hypothesis draws whole argument lists, malformed ones included, and each
call runs in-process through ``cli.main`` under a ``signal.setitimer``
budget (Hypothesis's deadline cannot stop a call that never returns).
Every call exits 0 or 1.  Exit 1 writes one stderr line that begins
``error:``.  Exit 0 writes the same bytes on a second call, and in JSON
those bytes are ``json.dumps(..., sort_keys=True)`` of what they parse to.
``certify`` may also exit 2 with one ``refused:`` line, or exit 1 with one
``numerical failure:`` line.
``integrate`` reads drawn rule and polynomial files in the writer's
layout, as written, pretty-printed or byte-edited; its value is the one
that ``json.loads``, ``from_json_dict`` and ``apply_rule`` give.
``bench`` writes CSV, one row per (dimension, fraction); a second call
writes the same rows but for the three timing columns.
"""

import contextlib
import csv
import io
import json
import signal
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symquad import cli, cubature
from symquad.cubature import CubatureRule, apply_rule, folded_rectangle_rule, rectangle_rule
from symquad.fourier import FourierPolynomial
from symquad.symmetry import InvariancePattern

BUDGET_S = 20.0  # far above any call here: d <= 10 writes at most 2^10 rows


class OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise OverBudget(f"a call took longer than {BUDGET_S} s")


def call(argv):
    """(exit code, stdout bytes, stderr text) of ``cli.main(argv)``, within the budget."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.buffer.getvalue(), err.getvalue()


#: each failing exit code and the beginnings of its one stderr line, for every command and for ``certify``
FAILURES = {1: ("error:",)}
CERTIFY_FAILURES = {1: ("error:", "numerical failure:"), 2: ("refused:",)}


def check_contract(argv, failures=FAILURES):
    """The contract of ``argv``: exit 0, or a code in ``failures`` with one stderr line that begins as it allows."""
    code, out, err = call(argv)
    assert code == 0 or code in failures, (argv, code, err)
    if code:
        assert out == b"", argv
        assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(failures[code]), (argv, err)
        return
    assert err == "", (argv, err)
    if "table" not in argv:
        assert out == (json.dumps(json.loads(out), sort_keys=True) + "\n").encode(), argv
    assert call(argv) == (0, out, ""), argv


MALFORMED_SPECS = ["", "0", "3-1", "1-3;2", "1--2", "a", ";", " , ", "1.5", "2-"]


def joined(coords):
    return ",".join(map(str, coords))


def pattern_flags(dim):
    """No pattern flag, a valid ``--invariant`` or ``--groups`` on ``1..dim``, or a bad or doubled one."""
    coords = st.lists(st.integers(1, dim), min_size=1, max_size=dim, unique=True)
    ranges = st.integers(1, dim).flatmap(lambda lo: st.integers(lo, dim).map(lambda hi: f"{lo}-{hi}"))
    groups = coords.flatmap(lambda c: st.integers(0, len(c)).map(lambda cut: f"{joined(c[:cut])};{joined(c[cut:])}"))
    bad = st.one_of(st.sampled_from(MALFORMED_SPECS), st.integers(dim + 1, 12).map(str))
    return st.one_of(
        st.just([]),
        st.one_of(coords.map(joined), ranges).map(lambda spec: ["--invariant", spec]),
        groups.map(lambda spec: ["--groups", spec]),
        st.one_of(
            st.tuples(st.sampled_from(["--invariant", "--groups"]), bad).map(list),
            st.tuples(ranges, ranges).map(lambda specs: ["--invariant", specs[0], "--groups", specs[1]]),
        ),
    )


dims = st.integers(1, 10)
cap_flags = st.one_of(st.just([]), st.sampled_from(["0", "-1", "1", "5", "40"]).map(lambda c: ["--cap", c]))
format_flags = st.sampled_from([[], ["--format", "json"], ["--format", "table"]])
kappa_flags = st.one_of(
    st.just([]), st.sampled_from(["1", "2.5", "0.5", "0", "-1", "nan"]).map(lambda k: ["--kappa", k])
)


@st.composite
def nabla_argvs(draw):
    dim = draw(dims)
    return ["nabla", "-d", str(dim), *draw(pattern_flags(dim)), *draw(cap_flags), *draw(format_flags)]


@st.composite
def rule_argvs(draw):
    dim = draw(dims)
    kind = draw(st.sampled_from([["--folded"], ["--rectangle"], [], ["--folded", "--rectangle"]]))
    pattern = draw(pattern_flags(dim)) if kind != ["--rectangle"] or draw(st.booleans()) else []
    return ["rule", "-d", str(dim), *kind, *pattern, *draw(cap_flags), *draw(format_flags)]


@st.composite
def weights_argvs(draw):
    """``weights`` arguments but ``--gammas``, and the dimension of the schedule to pass (sometimes not ``-d``)."""
    dim = draw(dims)
    schedule_dim = dim if draw(st.integers(0, 3)) else draw(dims)
    flags = [*draw(pattern_flags(dim)), *draw(kappa_flags), *draw(format_flags)]
    return schedule_dim, ["weights", "-d", str(dim), *flags]


@settings(max_examples=150, deadline=None)
@given(nabla_argvs())
@example(["nabla", "-d", "3", "--invariant", "1-3;2"])
@example(["nabla", "-d", "4", "--groups", "1-2;3-4", "--cap", "-1", "--format", "table"])
def test_nabla_keeps_the_contract(argv):
    check_contract(argv)


@settings(max_examples=150, deadline=None)
@given(rule_argvs())
@example(["rule", "-d", "5", "--folded", "--groups", "3-1", "--cap", "0"])
@example(["rule", "-d", "2", "--rectangle", "--cap", "3"])
def test_rule_keeps_the_contract(argv):
    check_contract(argv)


@pytest.fixture(scope="module")
def schedules(tmp_path_factory):
    """Paths of weight schedules of dimensions 1 to 10, written once."""
    root = tmp_path_factory.mktemp("schedules")
    paths = {}
    for dim in range(1, 11):
        paths[dim] = root / f"gammas-{dim}.json"
        paths[dim].write_text(json.dumps({"dim": dim, "gammas": [0.5 ** (m // 2) for m in range(dim)]}))
    return paths


@settings(max_examples=150, deadline=None)
@given(weights_argvs())
@example((8, ["weights", "-d", "8", "--invariant", "2-5", "--kappa", "1"]))
@example((4, ["weights", "-d", "3"]))
def test_weights_keeps_the_contract(schedules, case):
    schedule_dim, argv = case
    check_contract([*argv, "--gammas", str(schedules[schedule_dim])])


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.5, -0.25, 1.0, 0.1, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: single-byte substitutions, deletions and insertions, at positions taken modulo the text's length
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["substitute", "delete", "insert"]),
        st.integers(0, 2**16),
        st.one_of(st.sampled_from(b'05.,-e[]{}": 19\n'), st.integers(0, 255)),
    ),
    max_size=2,
)


@st.composite
def edited(draw, raw):
    """``raw`` as it stands, pretty-printed (so that ``_load_json`` reads it), or with drawn byte edits."""
    how = draw(st.sampled_from(["as-written", "pretty", "edited"]))
    if how == "pretty":
        return json.dumps(json.loads(raw), indent=1).encode()
    for op, at, byte in draw(EDITS) if how == "edited" else []:
        at %= len(raw) + (op == "insert")
        raw = raw[:at] + (b"" if op == "delete" else bytes([byte])) + raw[at + (op != "insert") :]
    return raw


@st.composite
def integrate_files(draw):
    """The texts of a rule file and of a polynomial file: ``rule``'s and the writer's layout at d <= 8, edited."""
    dim = draw(st.integers(1, 8))
    block = draw(st.sets(st.integers(1, dim), max_size=dim))
    rule = folded_rectangle_rule(InvariancePattern.single(dim, sorted(block))) if block else rectangle_rule(dim)
    if draw(st.booleans()):  # a few drawn complex weights in place of the rule's own
        pool = draw(st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(pool), min_size=rule.n_nodes, max_size=rule.n_nodes))
        rule = CubatureRule(dim, rule.nodes, picks)
    poly_dim = dim if draw(st.integers(0, 5)) else draw(st.integers(1, 8))
    keys = st.lists(st.integers(-3, 3), min_size=poly_dim, max_size=poly_dim)
    terms = draw(st.lists(st.tuples(keys, PARTS, PARTS), min_size=1, max_size=6))
    poly = {"dim": poly_dim, "terms": [{"k": k, "re": re, "im": im} for k, re, im in terms]}
    rule_text = cli._json_text(cli._rule_payload(rule))
    return draw(edited(rule_text)), draw(edited(json.dumps(poly).encode()))


def json_route_value(rule_path, poly_path):
    """``apply_rule`` of the files as ``json.loads`` and ``from_json_dict`` read them, or None where they refuse."""
    try:
        rule = CubatureRule.from_json_dict(json.loads(rule_path.read_text(encoding="utf-8")))
        poly = FourierPolynomial.from_json_dict(json.loads(poly_path.read_text(encoding="utf-8")))
        return apply_rule(rule, poly)  # a value beyond the float range raises OverflowError
    except (ValueError, KeyError, OverflowError, RecursionError):
        return None


@pytest.fixture(scope="module")
def integrate_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("integrate")


#: a polynomial file whose value on ``HUGE_RULES`` overflows: numpy once warned on stderr before the error line
HUGE_POLY = b'{"dim": 1, "terms": [{"k": [0], "re": 1e+300, "im": 0.0}]}'
HUGE_RULES = [
    cli._json_text(cli._rule_payload(CubatureRule(1, [[0.0], [0.5]], [1e300, 1e300]))),  # half-grid route
    json.dumps({"dim": 1, "nodes": [[0.0], [0.25]], "weights": [{"re": 1e300, "im": 0.0}] * 2}).encode(),  # pointwise
]


@settings(max_examples=300, deadline=None)
@given(integrate_files(), format_flags)
@example((HUGE_RULES[0], HUGE_POLY), [])
@example((HUGE_RULES[1], HUGE_POLY), ["--format", "table"])
def test_integrate_keeps_the_contract(integrate_dir, files, fmt):
    rule, poly = integrate_dir / "rule.json", integrate_dir / "poly.json"
    rule.write_bytes(files[0])
    poly.write_bytes(files[1])
    argv = ["integrate", "--rule", str(rule), "--poly", str(poly), *fmt]
    check_contract(argv)
    code, out, _ = call(argv)
    expected = json_route_value(rule, poly)
    assert code == (1 if expected is None else 0), (files, code)
    if code == 0 and "table" not in argv:
        assert json.loads(out)["value"] == {"re": expected.real, "im": expected.imag}, files


#: node coordinates: the grid, the smallest subnormal, the float below 1, and any float in [0, 1)
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.25, 1 - 2**-53, 5e-324]),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def certify_files(draw):
    """A float-node rule text (d <= 6, up to 12 nodes, some repeated), and a schedule text or None."""
    dim = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(COORDINATES, min_size=dim, max_size=dim), min_size=1, max_size=6))
    nodes = draw(st.lists(st.sampled_from(pool), max_size=12))
    even = [{"re": 1 / max(1, len(nodes)), "im": 0.0}] * len(nodes)
    parts = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.125, 1e-300])
    weights = draw(st.one_of(st.just(even), st.lists(st.fixed_dictionaries({"re": parts, "im": parts}),
                                                     min_size=len(nodes), max_size=len(nodes))))
    rule = json.dumps({"dim": dim, "nodes": nodes, "weights": weights}).encode()
    if not draw(st.booleans()):
        return dim, rule, None
    schedule_dim = dim if draw(st.integers(0, 3)) else draw(st.integers(1, 6))
    gammas = draw(st.lists(st.sampled_from([1.0, 0.5, 0.25, 1e-300, 0.0]), min_size=schedule_dim,
                           max_size=schedule_dim))
    return dim, rule, json.dumps({"dim": schedule_dim, "gammas": sorted(gammas, reverse=True)}).encode()


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


@settings(max_examples=200, deadline=None)
@given(certify_files(), st.data())
def test_certify_keeps_the_contract(drawn_dir, files, data):
    dim, rule_text, gammas_text = files
    rule, gammas = drawn_dir / "rule.json", drawn_dir / "gammas.json"
    rule.write_bytes(rule_text)
    flags = []
    if gammas_text is not None:
        gammas.write_bytes(gammas_text)
        flags = ["--weighted", "--gammas", str(gammas)]
    pattern = data.draw(pattern_flags(dim))
    alpha = data.draw(st.sampled_from(["2", "1.5", "4", "1.01"]))
    argv = ["certify", "--rule", str(rule), *pattern, "--alpha", alpha, *flags, *data.draw(format_flags)]
    check_contract(argv, CERTIFY_FAILURES)


#: numbers as text: negatives, 1100, 1e5, nan, inf and non-numbers
ODD_NUMBER_TEXTS = ["0", "-1", "-2.5", "1100", "1e5", "100000", "nan", "inf", "-inf", "x", ""]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(1, 12).map(str), st.sampled_from(ODD_NUMBER_TEXTS)),
    st.sampled_from(["2", "1.5", "4", "1.01", *ODD_NUMBER_TEXTS]),
    st.one_of(st.just([]), st.sampled_from(["1e-9", "1e-3", "1e-300", *ODD_NUMBER_TEXTS]).map(lambda t: ["--tol", t])),
    format_flags,
)
@example("3", "2", ["--tol", "1e-300"], [])
def test_wce_keeps_the_contract(dim, alpha, tol, fmt):
    check_contract(["wce", "-d", dim, "--alpha", alpha, *tol, *fmt])


#: profile entries that are not a sample's size: 1e308, 25000, 10^400, null, booleans, strings and lists
ODD_PROFILE_VALUES = [1e308, 25000, 20000, 10000, 10**400, 2.0, 2.5, -1, None, True, False, "4", [], [4]]


@st.composite
def profile_texts(draw):
    """A profile text: samples ``[d, i]`` with ``i <= d``, sometimes under a misnamed key.

    Some samples have an odd entry inserted and are then cut short.
    """
    samples = []
    for _ in range(draw(st.integers(0, 5))):
        dim = draw(st.integers(1, 40))
        row = [dim, draw(st.integers(0, dim))]
        if not draw(st.integers(0, 5)):
            row.insert(draw(st.integers(0, 2)), draw(st.sampled_from(ODD_PROFILE_VALUES)))
            del row[draw(st.integers(0, 3)):]
        samples.append(row)
    return json.dumps({"samples": samples} if draw(st.integers(0, 7)) else {"rows": samples}).encode()


ST_GRIDS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["0.5", "1", "0.25", "2", "0"]), st.sampled_from(["0.5", "1"])), max_size=3).map(
        lambda pairs: ";".join(f"{s},{t}" for s, t in pairs)
    ),
    st.sampled_from(["1", "1,2,3", "a,b", ";", "1,1;", "nan,1", "inf,inf", "-1,1", "1,", " , "]),
)


@settings(max_examples=200, deadline=None)
@given(profile_texts(), st.one_of(st.just([]), ST_GRIDS.map(lambda grid: ["--st", grid])), format_flags)
@example(b'{"samples": [[1e308, 0]]}', [], [])
@example(b'{"samples": [[20000, 0]]}', [], [])
def test_tract_keeps_the_contract(drawn_dir, profile_text, st_flags, fmt):
    profile = drawn_dir / "profile.json"
    profile.write_bytes(profile_text)
    check_contract(["tract", "--profile", str(profile), *st_flags, *fmt])


#: the columns of a ``bench`` row that hold timings, and so differ between two calls
TIMING_COLUMNS = {"time_full_s", "time_folded_s", "speedup"}


def untimed_rows(out):
    """The rows of ``bench``'s CSV output without the timing columns."""
    return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in csv.DictReader(io.StringIO(out.decode()))]


def list_text(items):
    """A comma-separated list of up to two drawn item texts (empty items are skipped by ``bench``)."""
    return st.lists(items, max_size=2).map(",".join)


#: ``--dims`` items: d <= 10, and values refused before their rule is built (below 1, beyond the cap, not an int)
BENCH_DIMS = list_text(st.one_of(st.integers(1, 10).map(str), st.sampled_from(["0", "-1", "30", "1100", "2.5", "x", " 4"])))
BENCH_FRACTIONS = list_text(st.sampled_from(["0", "1", "0.5", "0.25", "-0.0", "1e-300", "1.5", "-0.5", "nan", "inf", "x"]))


@settings(max_examples=150, deadline=None)
@given(
    BENCH_DIMS,
    st.one_of(st.just([]), BENCH_FRACTIONS.map(lambda t: ["--fractions", t])),
    st.one_of(st.just([]), st.sampled_from(["1", "2", "0", "-1", "1.5", "x"]).map(lambda t: ["--reps", t])),
    st.one_of(st.just([]), st.sampled_from(["0", "7", "-1", "x", "1e5", str(2**70)]).map(lambda t: ["--seed", t])),
)
@example("4,x", [], [], [])
@example("3,30", ["--fractions", "0,1"], [], [])
def test_bench_keeps_the_contract(dims, fractions, reps, seed):
    argv = ["bench", "--dims", dims, *fractions, *reps, *seed]
    with mock.patch.object(cubature, "MIN_TIMING_S", 0.0):  # time one loop: the timings are not checked
        code, out, err = call(argv)
        assert code in (0, 1), (argv, code, err)
        if code:
            assert out == b"", argv
            assert err.count("\n") == 1 and err.endswith("\n") and err.startswith("error:"), (argv, err)
            return
        assert err == "", (argv, err)
        rows = untimed_rows(out)
        fraction_texts = fractions[1] if fractions else "1.0,0.5"
        cells = [(int(d), float(f)) for d in dims.split(",") if d.strip() for f in fraction_texts.split(",") if f.strip()]
        assert [(int(r["dim"]), int(r["invariant_count"])) for r in rows] == [(d, round(f * d)) for d, f in cells]
        assert all(int(r["nodes_full"]) == 2 ** int(r["dim"]) for r in rows)
        code, out, err = call(argv)
    assert (code, err) == (0, ""), (argv, code, err)
    assert untimed_rows(out) == rows, argv
