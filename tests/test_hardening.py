"""Rejection of non-finite and non-integral input, in the library and the CLI."""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symquad
from symquad import CubatureRule, DimensionMismatchError, FourierPolynomial, InvariancePattern, InvarianceProfile
from symquad import WeightSchedule
from symquad.cli import main
from symquad.fourier import validate_multi_index

non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), non_finite, finite, st.booleans())
def test_non_finite_coefficients_are_rejected(dim, bad, good, bad_in_real):
    c = complex(bad, good) if bad_in_real else complex(good, bad)
    with pytest.raises(ValueError):
        FourierPolynomial(dim, {(0,) * dim: c})
    with pytest.raises(ValueError):
        FourierPolynomial.from_json_dict(
            {"dim": dim, "terms": [{"k": [0] * dim, "re": c.real, "im": c.imag}]}
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=5),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(lambda x: x != int(x)),
    st.data(),
)
def test_non_integral_frequencies_are_rejected(key, frac, data):
    pos = data.draw(st.integers(0, len(key) - 1))
    bad = list(key)
    bad[pos] = frac
    with pytest.raises(ValueError):
        validate_multi_index(bad)
    with pytest.raises(ValueError):
        FourierPolynomial.from_json_dict(
            {"dim": len(key), "terms": [{"k": bad, "re": 1.0, "im": 0.0}]}
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**31) + 1, 2**31 - 1), min_size=1, max_size=5))
def test_integral_floats_equal_their_integers(key):
    as_floats = [float(e) for e in key if abs(e) < 2**53]
    if as_floats:
        assert validate_multi_index(as_floats) == tuple(int(e) for e in as_floats)
    assert validate_multi_index(key) == tuple(key)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4), non_finite)
def test_non_finite_frequencies_are_rejected(key, bad):
    with pytest.raises(ValueError):
        validate_multi_index(key + [bad])


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 1, "terms": 5},
        {"dim": 1, "terms": [[1, 2]]},
        {"dim": 1, "terms": [{"k": 5, "re": 1.0, "im": 0.0}]},
        {"dim": 1, "terms": [{"k": None, "re": 1.0, "im": 0.0}]},
        {"dim": 1, "terms": [{"k": [1], "re": None, "im": 0.0}]},
        {"dim": 1, "terms": [{"k": [[1]], "re": 1.0, "im": 0.0}]},
        {"dim": None, "terms": []},
        {},
    ],
)
def test_malformed_polynomial_json_raises_value_error(data):
    with pytest.raises(ValueError):
        FourierPolynomial.from_json_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        5,
        {"dim": 1, "nodes": [[0.0]], "weights": 5},
        {"dim": 1, "nodes": [[0.0]], "weights": [1.0]},
        {"dim": 1, "nodes": [[0.0]], "weights": [{"re": None, "im": 0.0}]},
        {"dim": None, "nodes": [[0.0]], "weights": [{"re": 1.0, "im": 0.0}]},
    ],
)
def test_malformed_rule_json_raises_value_error(data):
    with pytest.raises(ValueError):
        CubatureRule.from_json_dict(data)


@pytest.mark.parametrize("data", [5, [3], {"groups": [[1, 2]]}, {"dim": 3, "groups": 5}, {"dim": 3, "groups": [2]}])
def test_malformed_pattern_json_raises_value_error(data):
    with pytest.raises(ValueError, match="malformed pattern JSON"):
        InvariancePattern.from_json_dict(data)


# ---------------------------------------------------------------------------
# exit codes


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rule_file(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"dim": 1, "nodes": [[0.0], [0.5]],
                                "weights": [{"re": 0.5, "im": 0.0}] * 2}))
    return str(path)


@pytest.mark.parametrize(
    "poly_text",
    [
        '{"dim": 1, "terms": [{"k": [1.7], "re": 1.0, "im": 0.0}]}',
        '{"dim": 1, "terms": [{"k": [Infinity], "re": 1.0, "im": 0.0}]}',
        '{"dim": 1, "terms": [{"k": [NaN], "re": 1.0, "im": 0.0}]}',
        '{"dim": 1, "terms": [{"k": 5, "re": 1.0, "im": 0.0}]}',
        '{"dim": 1, "terms": [{"k": [0], "re": NaN, "im": 0.0}]}',
        '{"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": Infinity}]}',
        '{"dim": 1, "terms": 5}',
    ],
)
def test_integrate_rejects_bad_polynomials(capsys, tmp_path, rule_file, poly_text):
    poly = tmp_path / "poly.json"
    poly.write_text(poly_text)
    code, out, err = run(capsys, ["integrate", "--rule", rule_file, "--poly", str(poly)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_integrate_rejects_malformed_rule(capsys, tmp_path):
    rule = tmp_path / "rule.json"
    rule.write_text('{"dim": 1, "nodes": [[0.0]], "weights": [1.0]}')
    poly = tmp_path / "poly.json"
    poly.write_text('{"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": 0.0}]}')
    code, _, err = run(capsys, ["integrate", "--rule", str(rule), "--poly", str(poly)])
    assert code == 1
    assert err.startswith("error:")


def test_overflow_maps_to_exit_1(capsys):
    code, out, err = run(capsys, ["wce", "-d", "2", "--alpha", "1e5"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "gammas_text",
    ['{"dim": 3, "gammas": 5}', '{"dim": 3, "gammas": ["a", 1, 1]}', "[1, 2]"],
)
def test_weights_rejects_malformed_schedules(capsys, tmp_path, gammas_text):
    gammas = tmp_path / "g.json"
    gammas.write_text(gammas_text)
    code, out, err = run(capsys, ["weights", "-d", "3", "--gammas", str(gammas)])
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("profile_text", ['{"samples": 5}', '{"samples": [[3]]}', "[[3, 1]]"])
def test_tract_rejects_malformed_profiles(capsys, tmp_path, profile_text):
    profile = tmp_path / "p.json"
    profile.write_text(profile_text)
    code, out, err = run(capsys, ["tract", "--profile", str(profile)])
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("kind", ["--rectangle", "--folded"])
def test_rule_cap_is_honoured(capsys, kind):
    code, out, err = run(capsys, ["rule", kind, "-d", "3", "--cap", "2"])
    assert (code, out) == (1, "")
    assert "exceeds cap 2" in err
    code, out, _ = run(capsys, ["rule", kind, "-d", "3", "--cap", "8"])
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 8


# ---------------------------------------------------------------------------
# JSON booleans are not numbers (``int(True)`` is 1), and nodes keep their shape


@pytest.mark.parametrize(
    "data",
    [
        {"dim": True, "terms": [{"k": [0], "re": 1.0, "im": 0.0}]},
        {"dim": 2, "terms": [{"k": [True, 0], "re": 1.0, "im": 0.0}]},
        {"dim": 1, "terms": [{"k": [False], "re": 1.0, "im": 0.0}]},
        {"dim": 1, "terms": [{"k": [0], "re": True, "im": 0.0}]},
        {"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": False}]},
    ],
)
def test_polynomial_json_rejects_booleans(data):
    with pytest.raises(ValueError, match="boolean"):
        FourierPolynomial.from_json_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"dim": True, "nodes": [[0.0]], "weights": [{"re": 1.0, "im": 0.0}]},
        {"dim": 2, "nodes": [[False, 0.5]], "weights": [{"re": 1.0, "im": 0.0}]},
        {"dim": 1, "nodes": [[0.0]], "weights": [{"re": True, "im": 0.0}]},
        {"dim": 1, "nodes": [[0.0]], "weights": [{"re": 1.0, "im": False}]},
    ],
)
def test_rule_json_rejects_booleans(data):
    with pytest.raises(ValueError, match="boolean"):
        CubatureRule.from_json_dict(data)


@pytest.mark.parametrize(
    "data",
    [{"dim": 3, "gammas": [True, 0.5, 0.25]}, {"dim": 3, "gammas": [1.0, 0.5, False]}, {"dim": True, "gammas": [1.0]}],
)
def test_weight_schedule_json_rejects_booleans(data):
    with pytest.raises(ValueError, match="boolean"):
        WeightSchedule.from_json_dict(data)


@pytest.mark.parametrize("data", [{"samples": [[True, 0]]}, {"samples": [[3, 1], [4, True]]}])
def test_profile_json_rejects_booleans(data):
    with pytest.raises(ValueError, match="boolean"):
        InvarianceProfile.from_json_dict(data)


@pytest.mark.parametrize(
    "rule_text,poly_text",
    [
        ('{"dim": 1, "nodes": [[0.0]], "weights": [{"re": true, "im": 0.0}]}',
         '{"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": 0.0}]}'),
        ('{"dim": 2, "nodes": [[0.0, 0.5]], "weights": [{"re": 1.0, "im": 0.0}]}',
         '{"dim": 2, "terms": [{"k": [true, 0], "re": 1.0, "im": 0.0}]}'),
        ('{"dim": 2, "nodes": [[0.1, 0.2, 0.3, 0.4]], "weights": [{"re": 0.5, "im": 0.0}, {"re": 0.5, "im": 0.0}]}',
         '{"dim": 2, "terms": [{"k": [1, 0], "re": 1.0, "im": 0.0}]}'),
        ('{"dim": 2, "nodes": [0.1, 0.2, 0.3, 0.4], "weights": [{"re": 0.5, "im": 0.0}, {"re": 0.5, "im": 0.0}]}',
         '{"dim": 2, "terms": [{"k": [1, 0], "re": 1.0, "im": 0.0}]}'),
        ('{"dim": 2, "nodes": [[0.1, 0.2], [0.3]], "weights": [{"re": 0.5, "im": 0.0}, {"re": 0.5, "im": 0.0}]}',
         '{"dim": 2, "terms": [{"k": [1, 0], "re": 1.0, "im": 0.0}]}'),
    ],
    ids=["bool-weight", "bool-frequency", "one-row-of-four", "flat-nodes", "ragged-nodes"],
)
def test_integrate_rejects_booleans_and_wrong_node_shapes(capsys, tmp_path, rule_text, poly_text):
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    rule.write_text(rule_text)
    poly.write_text(poly_text)
    code, out, err = run(capsys, ["integrate", "--rule", str(rule), "--poly", str(poly)])
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("nodes", [[[0.1, 0.2, 0.3, 0.4]], [0.1, 0.2, 0.3, 0.4], [[[0.1, 0.2]], [[0.3, 0.4]]]])
def test_rule_nodes_must_have_shape_n_by_dim(nodes):
    with pytest.raises(ValueError, match="shape"):
        CubatureRule(2, nodes, [0.5, 0.5])
    assert CubatureRule(2, [], []).n_nodes == 0


def test_cli_rejects_boolean_schedules_and_profiles(capsys, tmp_path):
    gammas, profile = tmp_path / "g.json", tmp_path / "p.json"
    gammas.write_text('{"dim": 3, "gammas": [true, 0.5, 0.25]}')
    profile.write_text('{"samples": [[3, true]]}')
    for argv in (["weights", "-d", "3", "--gammas", str(gammas)], ["tract", "--profile", str(profile)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "boolean" in err


# ---------------------------------------------------------------------------
# integer fields are not truncated: ``1.9`` is refused, ``2.0`` is read as 2


@pytest.mark.parametrize(
    "reader,data",
    [
        (CubatureRule.from_json_dict, {"dim": 1.9, "nodes": [[0.0]], "weights": [{"re": 1.0, "im": 0.0}]}),
        (FourierPolynomial.from_json_dict, {"dim": 1.9, "terms": [{"k": [0], "re": 1.0, "im": 0.0}]}),
        (WeightSchedule.from_json_dict, {"dim": 1.9, "gammas": [1.0]}),
        (InvariancePattern.from_json_dict, {"dim": 3.5, "groups": [[1, 2]]}),
        (InvariancePattern.from_json_dict, {"dim": 3, "groups": [[1, 2.5]]}),
        (InvarianceProfile.from_json_dict, {"samples": [[3.7, 1.9]]}),
        (InvarianceProfile.from_json_dict, {"samples": [[3, 1.5]]}),
    ],
    ids=["rule-dim", "polynomial-dim", "schedule-dim", "pattern-dim", "pattern-member",
         "profile-sample", "profile-count"],
)
def test_fractional_integers_are_rejected(reader, data):
    with pytest.raises(ValueError, match="integral"):
        reader(data)


def test_integral_floats_are_read_as_integers():
    assert CubatureRule.from_json_dict(
        {"dim": 2.0, "nodes": [[0.0, 0.5]], "weights": [{"re": 1.0, "im": 0.0}]}
    ).dim == 2
    assert FourierPolynomial.from_json_dict({"dim": 1.0, "terms": []}).dim == 1
    assert WeightSchedule.from_json_dict({"dim": 2.0, "gammas": [1.0, 0.5]}).dim == 2
    assert InvariancePattern.from_json_dict({"dim": 3.0, "groups": [[1.0, 2]]}).groups == ((1, 2),)
    assert InvarianceProfile.from_json_dict({"samples": [[3.0, 1.0]]}).samples == ((3, 1),)


@pytest.mark.parametrize(
    "subcommand,text",
    [
        ("integrate", '{"dim": 1.9, "terms": [{"k": [0], "re": 1.0, "im": 0.0}]}'),
        ("weights", '{"dim": 3.5, "gammas": [1.0, 0.5, 0.25]}'),
        ("tract", '{"samples": [[3.7, 1.9]]}'),
    ],
)
def test_cli_rejects_fractional_integers(capsys, tmp_path, rule_file, subcommand, text):
    data = tmp_path / "data.json"
    data.write_text(text)
    argv = {
        "integrate": ["integrate", "--rule", rule_file, "--poly", str(data)],
        "weights": ["weights", "-d", "3", "--gammas", str(data)],
        "tract": ["tract", "--profile", str(data)],
    }[subcommand]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "integral" in err


@pytest.mark.parametrize("dim", ["0", "2"])
def test_certify_checks_every_given_dimension(capsys, rule_file, dim):
    code, out, err = run(capsys, ["certify", "--rule", rule_file, "-d", dim, "--alpha", "2"])
    assert (code, out) == (1, "")
    assert f"--dim {dim} does not match rule dimension 1" in err


# ---------------------------------------------------------------------------
# JSON strings are not numbers either (``float("1")`` is 1.0)

GOOD_RULE = '{"dim": 1, "nodes": [[0.5]], "weights": [{"re": 1.0, "im": 0.0}]}'
GOOD_POLY = '{"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": 0.0}]}'


@pytest.mark.parametrize(
    "reader,data",
    [
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [["0.5"]], "weights": [{"re": 1.0, "im": 0.0}]}),
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[0.5]], "weights": [{"re": "1", "im": 0.0}]}),
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[0.5]], "weights": [{"re": 1.0, "im": "0.0"}]}),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": [0], "re": "1.0", "im": 0.0}]}),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": "0"}]}),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": ["0"], "re": 1.0, "im": 0.0}]}),
        (WeightSchedule.from_json_dict, {"dim": 3, "gammas": [1.0, "0.5", 0.25]}),
        (InvarianceProfile.from_json_dict, {"samples": [[3, "1"]]}),
        (InvariancePattern.from_json_dict, {"dim": 3, "groups": [[1, "2"]]}),
        (InvariancePattern.from_json_dict, {"dim": "3", "groups": [[1, 2]]}),
        (InvariancePattern.from_json_dict, {"dim": 3, "groups": [[2, True]]}),
    ],
    ids=["rule-node", "rule-re", "rule-im", "polynomial-re", "polynomial-im", "polynomial-k",
         "schedule-gamma", "profile-count", "pattern-member", "pattern-dim", "pattern-boolean-member"],
)
def test_json_readers_reject_strings(reader, data):
    with pytest.raises(ValueError, match="string"):
        reader(data)


@pytest.mark.parametrize(
    "rule_text,poly_text",
    [
        ('{"dim": 1, "nodes": [["0.5"]], "weights": [{"re": "1", "im": "0"}]}', GOOD_POLY),
        ('{"dim": 1, "nodes": [[0.5]], "weights": [{"re": 1.0, "im": "0.0"}]}', GOOD_POLY),
        (GOOD_RULE, '{"dim": 1, "terms": [{"k": [0], "re": "1.0", "im": 0.0}]}'),
        (GOOD_RULE, '{"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": "0"}]}'),
    ],
    ids=["rule-all-strings", "rule-im", "polynomial-re", "polynomial-im"],
)
def test_integrate_rejects_numbers_written_as_strings(capsys, tmp_path, rule_text, poly_text):
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    rule.write_text(rule_text)
    poly.write_text(poly_text)
    code, out, err = run(capsys, ["integrate", "--rule", str(rule), "--poly", str(poly)])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "string" in err


# JSON null is not a number either: numpy reads it as NaN, and a lone [x] as x


@pytest.mark.parametrize(
    "reader,data,schema,word",
    [
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[None]], "weights": [{"re": 1.0, "im": 0.0}]}, "rule",
         "null"),
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[0.5]], "weights": [{"re": None, "im": 0.0}]}, "rule",
         "null"),
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[0.5]], "weights": [{"re": 1.0, "im": None}]}, "rule",
         "null"),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": [0], "re": None, "im": 0.0}]}, "polynomial",
         "null"),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": None}]}, "polynomial",
         "null"),
        (WeightSchedule.from_json_dict, {"dim": 3, "gammas": [1.0, None, 0.25]}, "weight schedule", "null"),
        # numpy reads each of these lists as the number inside
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[[0.5]], [[0.0]]], "weights": [{"re": 0.5, "im": 0.0}] * 2},
         "rule", "a list"),
        (CubatureRule.from_json_dict, {"dim": 1, "nodes": [[0.5]], "weights": [{"re": [1.0], "im": 0.0}]}, "rule",
         "a list"),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": [0], "re": [1.0], "im": 0.0}]}, "polynomial",
         "a list"),
        (FourierPolynomial.from_json_dict, {"dim": 1, "terms": [{"k": [0], "re": 1.0, "im": [[0.5]]}]}, "polynomial",
         "a list"),
    ],
    ids=["rule-node", "rule-re", "rule-im", "polynomial-re", "polynomial-im", "schedule-gamma",
         "rule-listed-nodes", "rule-lone-listed-weight", "polynomial-lone-listed-re", "polynomial-lone-listed-im"],
)
def test_json_readers_reject_null_and_lists_where_a_number_belongs(reader, data, schema, word):
    with pytest.raises(ValueError) as err:
        reader(data)
    assert str(err.value) == f"{schema} JSON holds {word} where a number belongs"


WRITER_RULE = (  # what ``rule --rectangle -d 1`` writes
    '{"dim": 1, "nodes": [[0.0], [0.5]], "schema_version": 1, '
    '"weights": [{"im": 0.0, "re": 0.5}, {"im": 0.0, "re": 0.5}]}\n'
)


@pytest.mark.parametrize(
    "rule_text,poly_text,schema",
    [
        (WRITER_RULE.replace('"re": 0.5}]', '"re": null}]'), GOOD_POLY, "rule"),
        ('{"dim": 1, "nodes": [[null]], "weights": [{"re": 1.0, "im": 0.0}]}', GOOD_POLY, "rule"),
        (GOOD_RULE, GOOD_POLY.replace('"re": 1.0', '"re": null'), "polynomial"),
        (GOOD_RULE, GOOD_POLY.replace('"im": 0.0', '"im": null'), "polynomial"),
        (GOOD_RULE, '{"dim": 1, "terms": [{"im": 0.0, "k": [0], "re": null}]}', "polynomial"),
    ],
    ids=["writer-rule-re", "rule-node", "writer-polynomial-re", "writer-polynomial-im", "sorted-polynomial-re"],
)
def test_integrate_rejects_null_numbers(capsys, tmp_path, rule_text, poly_text, schema):
    # the writer's layout with null in it is declined by the in-place readers and refused by json.loads's route
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    rule.write_text(rule_text)
    poly.write_text(poly_text)
    code, out, err = run(capsys, ["integrate", "--rule", str(rule), "--poly", str(poly)])
    assert (code, out) == (1, "")
    assert err == f"error: {schema} JSON holds null where a number belongs\n"


def test_cli_rejects_string_schedules_and_profiles(capsys, tmp_path):
    gammas, profile = tmp_path / "g.json", tmp_path / "p.json"
    gammas.write_text('{"dim": 3, "gammas": ["1.0", 0.5, 0.25]}')
    profile.write_text('{"samples": [["3", 1]]}')
    for argv in (["weights", "-d", "3", "--gammas", str(gammas)], ["tract", "--profile", str(profile)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "string" in err


def test_integrate_accepts_the_same_files_with_numbers(capsys, tmp_path):
    rule, poly = tmp_path / "rule.json", tmp_path / "poly.json"
    rule.write_text(GOOD_RULE)
    poly.write_text(GOOD_POLY)
    code, out, err = run(capsys, ["integrate", "--rule", str(rule), "--poly", str(poly)])
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == {"re": 1.0, "im": 0.0}


# ---------------------------------------------------------------------------
# nesting deeper than the parser's recursion limit is an input error of the command


@pytest.mark.parametrize("deep_flag", ["--rule", "--poly"])
def test_integrate_command_reports_deeply_nested_json(tmp_path, deep_flag):
    rule, poly, deep = tmp_path / "rule.json", tmp_path / "poly.json", tmp_path / "deep.json"
    rule.write_text(GOOD_RULE)
    poly.write_text(GOOD_POLY)
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["integrate", "--rule", str(rule), "--poly", str(poly)]
    argv[argv.index(deep_flag) + 1] = str(deep)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symquad.__file__)))
    done = subprocess.run([sys.executable, "-m", "symquad.cli", *argv], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# library arguments that computed something else instead of being refused

BLOCK = InvariancePattern.single(3, (1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: symquad.rectangle_worst_case_error(2.5, 2.0), "dimension 2.5 is not integral"),
        (lambda: symquad.error_lower_bound(1.7, BLOCK, WeightSchedule(3, (1.0, 0.5, 0.25))), "node count 1.7"),
        (lambda: symquad.is_invariant(FourierPolynomial(3, {(1, 0, 0): 1.0}), BLOCK, tol=math.nan), "tolerance"),
        (lambda: symquad.riemann_zeta(2.0, tol=math.inf), "positive and finite"),
        (lambda: symquad.nullspace_solution([[1.0, math.nan]]), "non-finite"),
    ],
)
def test_arguments_that_passed_quietly_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_nan_residual_tolerance_accepts_no_nullspace_vector():
    with pytest.raises(symquad.NullspaceError):
        symquad.nullspace_solution([[1.0, 1.0]], residual_tol=math.nan)


# ---------------------------------------------------------------------------
# error branches of the library that no other test reaches

RULE_3 = CubatureRule(3, [[0.0, 0.0, 0.0]], [1.0])
POLY_2 = FourierPolynomial(2, {(1, 0): 1.0})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: symquad.constraint_matrix(RULE_3, InvariancePattern.single(2, (1, 2)), [(0, 0)] * 2),
         DimensionMismatchError, "rule and pattern dimensions differ"),
        (lambda: symquad.construct_certificate(RULE_3, InvariancePattern.single(2, (1, 2)), 2.0),
         DimensionMismatchError, "rule and pattern dimensions differ"),
        (lambda: symquad.symmetrize(POLY_2, BLOCK), DimensionMismatchError, "polynomial and pattern dimensions"),
        (lambda: symquad.is_invariant(POLY_2, BLOCK), DimensionMismatchError, "polynomial and pattern dimensions"),
        (lambda: symquad.min_product_weight((1, 0, 0), BLOCK, WeightSchedule(2, (1.0, 0.5))),
         DimensionMismatchError, "schedule and pattern dimensions differ"),
        (lambda: POLY_2 + FourierPolynomial(3, {}), DimensionMismatchError, "cannot add"),
        (lambda: POLY_2 * FourierPolynomial(3, {}), DimensionMismatchError, "cannot multiply"),
        (lambda: symquad.nullspace_solution([[1.0, 0.0, 0.0]]), ValueError, r"expected an n x \(n\+1\) matrix"),
        (lambda: symquad.nullspace_solution([1.0, 0.0]), ValueError, r"expected an n x \(n\+1\) matrix"),
        (lambda: validate_multi_index(()), ValueError, "dimension must be >= 1"),
        (lambda: symquad.parse_coordinate_set("3-1"), ValueError, "bad coordinate range '3-1'"),
        (lambda: symquad.error_lower_bound(-1, BLOCK, WeightSchedule(3, (1.0, 0.5, 0.25))),
         ValueError, "node count must be >= 0"),
        (lambda: symquad.rectangle_worst_case_error(0, 2.0), ValueError, "dimension must be >= 1"),
    ],
    ids=["constraint-matrix", "construct-certificate", "symmetrize", "is-invariant", "product-weights",
         "add", "multiply", "nullspace-shape", "nullspace-vector", "empty-key", "reversed-range",
         "negative-node-count", "dimension-zero"],
)
def test_error_branches_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
