"""Command-line interface: schemas, exit codes, reproducibility, help text."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symquad
from symquad import cli, fooling
from symquad.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def small_rule_file(tmp_path):
    rng = np.random.default_rng(0)
    rule = {
        "dim": 3,
        "nodes": rng.random((4, 3)).tolist(),
        "weights": [{"re": float(x), "im": float(y)} for x, y in rng.random((4, 2))],
    }
    return write_json(tmp_path / "rule.json", rule)


def test_nabla_counts(capsys):
    code, out, _ = run(capsys, ["nabla", "-d", "3", "--invariant", "1-3"])
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["count"] == 4
    assert [r["orbit_size"] for r in data["rows"]] == [1, 3, 3, 1]
    assert data["orbit_size_total"] == 8


def test_nabla_table_format(capsys):
    code, out, _ = run(capsys, ["nabla", "-d", "2", "--invariant", "1-2", "--format", "table"])
    assert code == 0
    assert "orbit" in out
    assert "count 3" in out


def test_rule_rectangle(capsys):
    code, out, _ = run(capsys, ["rule", "--rectangle", "-d", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 8
    assert sum(w["re"] for w in data["weights"]) == pytest.approx(1.0, abs=1e-15)


def test_rule_folded(capsys):
    code, out, _ = run(capsys, ["rule", "--folded", "-d", "2", "--invariant", "1-2"])
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == [[0.0, 0.0], [0.0, 0.5], [0.5, 0.5]]
    assert [w["re"] for w in data["weights"]] == [0.25, 0.5, 0.25]


def test_rule_flag_validation(capsys):
    code, _, err = run(capsys, ["rule", "-d", "3"])
    assert code == 1
    assert "rectangle" in err


def test_pattern_flags_mutually_exclusive(capsys):
    code, _, err = run(
        capsys, ["nabla", "-d", "4", "--invariant", "1-2", "--groups", "3,4"]
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_integrate(capsys, tmp_path):
    run(capsys, ["rule", "--rectangle", "-d", "2", "--out", str(tmp_path / "r.json")])
    poly = {
        "dim": 2,
        "terms": [
            {"k": [0, 0], "re": 2.0, "im": 0.0},
            {"k": [2, -2], "re": 1.0, "im": 0.5},
            {"k": [1, 0], "re": 9.0, "im": 0.0},
        ],
    }
    poly_path = write_json(tmp_path / "f.json", poly)
    code, out, _ = run(capsys, ["integrate", "--rule", str(tmp_path / "r.json"), "--poly", poly_path])
    assert code == 0
    value = json.loads(out)["value"]
    # even mode contributes fully, odd mode drops out
    assert value["re"] == pytest.approx(3.0, abs=1e-12)
    assert value["im"] == pytest.approx(0.5, abs=1e-12)


def test_wce_reports_consistent_pair(capsys):
    code, out, _ = run(capsys, ["wce", "-d", "2", "--alpha", "4", "--tol", "1e-8"])
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == pytest.approx(0.2888843019001428, abs=1e-6)
    assert abs(data["closed_form"] - data["oracle_value"]) <= data["tail_bound"]


def test_certify_success_writes_certificate(capsys, small_rule_file, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        ["certify", "--rule", small_rule_file, "--invariant", "1-2", "--alpha", "2", "--out", str(out_path)],
    )
    assert code == 0
    cert = json.loads(out_path.read_text())
    assert cert["kind"] == "fooling-certificate"
    assert cert["integral_value"]["re"] == 1.0
    assert cert["norm_value"] <= 1.0 + 1e-9
    assert len(cert["mode_order"]) == 5
    assert all(abs(z["re"]) <= 1 + 1e-12 and abs(z["im"]) <= 1 + 1e-12 for z in cert["combination"])


def test_certify_refusal_exit_code(capsys, tmp_path):
    run(capsys, ["rule", "--folded", "-d", "2", "--invariant", "1-2", "--out", str(tmp_path / "r.json")])
    code, _, err = run(
        capsys, ["certify", "--rule", str(tmp_path / "r.json"), "--invariant", "1-2", "--alpha", "2"]
    )
    assert code == 2
    assert "refused" in err
    assert "error <=" in err  # the folded-rule bound is printed


def test_certify_weighted(capsys, small_rule_file, tmp_path):
    gammas = write_json(tmp_path / "g.json", {"dim": 3, "gammas": [1.0, 0.5, 0.25]})
    code, out, _ = run(
        capsys,
        ["certify", "--rule", small_rule_file, "--invariant", "1-2", "--alpha", "2", "--weighted", "--gammas", gammas],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["weight_scale"] > 0
    assert cert["integral_value"]["re"] >= cert["weight_floor"] - 1e-9


def test_weights_command(capsys, tmp_path):
    gammas = write_json(tmp_path / "g.json", {"dim": 3, "gammas": [1.0, 0.5, 0.5]})
    code, out, _ = run(
        capsys, ["weights", "-d", "3", "--invariant", "1", "--gammas", gammas, "--kappa", "2"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["weights"][0] == 1.0
    assert data["power_sum"]["closed"] == pytest.approx(3.125)
    assert data["power_sum"]["brute"] == pytest.approx(3.125, rel=1e-12)
    assert data["power_sum"]["closed_form_applicable"]


def test_tract_command(capsys, tmp_path):
    profile = write_json(tmp_path / "p.json", {"samples": [[4, 0], [8, 0], [16, 0], [32, 0]]})
    code, out, _ = run(capsys, ["tract", "--profile", profile, "--st", "1,1;0.5,0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["verdicts"]["curse"] == "consistent-at-scale"
    assert data["st_weak"]["1.0,1.0"] == "excluded-at-scale"
    assert data["node_counts"] == ["16", "256", "65536", "4294967296"]


def test_bench_csv(capsys):
    code, out, _ = run(capsys, ["bench", "--dims", "8", "--fractions", "1.0", "--reps", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("dim,invariant_count,nodes_full,nodes_folded")
    row = lines[1].split(",")
    assert row[:4] == ["8", "8", "256", "9"]
    assert float(row[-1]) <= 1e-9


def test_machine_output_reproducible(capsys, tmp_path):
    gammas = write_json(tmp_path / "g.json", {"dim": 4, "gammas": [1.0, 0.9, 0.5, 0.1]})
    argv = ["weights", "-d", "4", "--invariant", "1-2", "--gammas", gammas, "--kappa", "1.5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_malformed_json_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["integrate", "--rule", str(bad), "--poly", str(bad)])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["weights", "-d", "4", "--invariant", "1-2", "--gammas", "GAMMAS", "--kappa", "inf"], "exponent"),
        (["wce", "-d", "3", "--alpha", "2", "--tol", "inf"], "tolerance"),
    ],
)
def test_non_finite_options_exit_1_without_output(capsys, tmp_path, argv, message):
    gammas = write_json(tmp_path / "g.json", {"dim": 4, "gammas": [1.0, 0.9, 0.5, 0.1]})
    code, out, err = run(capsys, [gammas if a == "GAMMAS" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err and "finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--dims", "4", "--fractions", "-0.5", "--reps", "1"], "fractions must lie in [0, 1]"),
        (["bench", "--dims", "4", "--fractions", "1.0,1.5", "--reps", "1"], "fractions must lie in [0, 1]"),
        (["rule", "--rectangle", "-d", "3", "--invariant", "1-2"], "--rectangle takes no --invariant"),
        (["rule", "--rectangle", "-d", "3", "--groups", "1-2"], "--rectangle takes no --invariant"),
        (["bench", "--dims", "", "--reps", "1"], "at least one dimension and one invariant fraction"),
        (["bench", "--dims", "4", "--reps", "0"], "repetitions must be >= 1"),
        (["bench", "--dims", "4", "--reps", "-2"], "repetitions must be >= 1"),
        (["rule", "--folded", "-d", "3", "--invariant", ","], "--invariant ',' names no coordinate"),
        (["rule", "--folded", "-d", "3", "--invariant", " "], "--invariant ' ' names no coordinate"),
        (["rule", "--folded", "-d", "3", "--invariant", ""], "--invariant '' names no coordinate"),
        (["rule", "--folded", "-d", "3", "--groups", ";"], "--groups ';' names no coordinate"),
        (["nabla", "-d", "3", "--groups", ""], "--groups '' names no coordinate"),
        (["rule", "--rectangle", "-d", "3", "--invariant", ""], "--rectangle takes no --invariant"),
        (["tract", "--profile", "unread.json", "--st", "1"], "--st part '1' is not an 's,t' pair"),
        (["tract", "--profile", "unread.json", "--st", "1,1; 1,2,3"], "--st part '1,2,3' is not an 's,t' pair"),
        (["wce", "-d", "3", "--alpha", "2", "--tol", "1e-300"], "tolerance 1e-300 is below"),
        (["wce", "-d", "400", "--alpha", "1.01"], "the closed form exceeds the float range (1.8e308)"),
        (["wce", "-d", "3", "--alpha", "1100"], "the closed form underflows"),
    ],
)
def test_options_that_passed_quietly_exit_1(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("DEFAULT_CHECK_TOL", -1.0, "nullspace residual"),  # every residual exceeds a negative tolerance
        ("apply_rule", lambda rule, poly: 1.0 + 0j, "certificate verification failed"),  # Q(f) is not 0
    ],
)
def test_certify_numerical_failure_exits_1(capsys, small_rule_file, monkeypatch, name, value, message):
    monkeypatch.setattr(fooling, name, value)
    code, out, err = run(capsys, ["certify", "--rule", small_rule_file, "--invariant", "1-2", "--alpha", "2"])
    assert (code, out) == (1, "")
    assert err.startswith(f"numerical failure: {message}")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "symquad: the following arguments are required: command"),
        (["rule"], "symquad rule: the following arguments are required: -d/--dim"),
        (["rule", "-d", "x", "--folded"], "symquad rule: argument -d/--dim: invalid int value: 'x'"),
        (["tract", "--st", "-1,1"], "symquad tract: argument --st: expected one argument"),  # -1,1 reads as an option
    ],
)
def test_usage_errors_exit_1_with_one_error_line(capsys, argv, message):
    # 2 means a refused certificate only, so a mistyped call must not exit 2
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_memory_error_exits_1_with_one_error_line(capsys, monkeypatch):
    def exhausted(pattern, cap):
        raise MemoryError()

    monkeypatch.setattr(cli, "_folded_classes", exhausted)
    code, out, err = run(capsys, ["rule", "--rectangle", "-d", "4"])
    assert (code, out) == (1, "")
    assert err == "error: MemoryError\n"


def test_bench_out_writes_the_csv(capsys, tmp_path):
    argv = ["bench", "--dims", "6", "--fractions", "0.5", "--reps", "1"]
    code, out, _ = run(capsys, argv + ["--out", str(tmp_path / "bench.csv")])
    assert (code, out) == (0, "")
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "dim,invariant_count,nodes_full,nodes_folded,time_full_s,time_folded_s,speedup,max_abs_diff"
    assert lines[1].split(",")[:4] == ["6", "3", "64", "32"]


def test_certify_gammas_requires_weighted(capsys, small_rule_file, tmp_path):
    gammas = write_json(tmp_path / "g.json", {"dim": 3, "gammas": [1.0, 0.5, 0.25]})
    code, out, err = run(
        capsys, ["certify", "--rule", small_rule_file, "--invariant", "1-2", "--alpha", "2", "--gammas", gammas]
    )
    assert code == 1
    assert out == ""
    assert err == "error: --gammas requires --weighted\n"


def test_certify_weighted_requires_gammas(capsys, small_rule_file):
    code, out, err = run(capsys, ["certify", "--rule", small_rule_file, "--invariant", "1-2", "--alpha", "2", "--weighted"])
    assert (code, out, err) == (1, "", "error: --weighted requires --gammas\n")


def test_wce_and_certify_refusal_near_alpha_one(capsys, tmp_path):
    code, out, err = run(capsys, ["wce", "-d", "2", "--alpha", "1.01"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert 0 < data["closed_form"] - data["oracle_value"] <= data["tail_bound"]
    rule, cert = str(tmp_path / "r.json"), tmp_path / "cert.json"
    run(capsys, ["rule", "--folded", "-d", "4", "--invariant", "1-2", "--out", rule])  # 12 nodes, the threshold
    code, out, err = run(capsys, ["certify", "--rule", rule, "--invariant", "1-2", "--alpha", "1.01", "--out", str(cert)])
    assert (code, out) == (2, "")
    assert err.startswith("refused: rule uses 12 nodes") and "error <=" in err
    assert not cert.exists()


def test_tract_skips_empty_grid_parts(capsys, tmp_path):
    profile = write_json(tmp_path / "p.json", {"samples": [[4, 0], [8, 0], [16, 0]]})
    outputs = [run(capsys, ["tract", "--profile", profile, "--st", st]) for st in ("1,1;;0.5,0.5", " 1,1 ; 0.5,0.5;")]
    assert outputs[0] == outputs[1] == run(capsys, ["tract", "--profile", profile, "--st", "1,1;0.5,0.5"])
    assert sorted(json.loads(outputs[0][1])["st_weak"]) == ["0.5,0.5", "1.0,1.0"]


OUTPUT_ARGVS = [
    ["rule", "--folded", "-d", "8", "--invariant", "1-4"],
    ["rule", "--rectangle", "-d", "3", "--format", "table"],
    ["nabla", "-d", "6", "--invariant", "1-3", "--format", "table"],
    ["wce", "-d", "4", "--alpha", "2"],
    ["wce", "-d", "4", "--alpha", "2", "--format", "table"],
]


@pytest.mark.parametrize("argv", OUTPUT_ARGVS)
def test_commands_return_their_bytes_and_main_writes_them(capsys, tmp_path, argv):
    args = build_parser().parse_args(argv)
    data = args.func(args)
    assert isinstance(data, bytes) and capsys.readouterr() == ("", "")
    assert run(capsys, argv) == (0, data.decode(), "")
    out = tmp_path / "out"
    assert run(capsys, argv + ["--out", str(out)]) == (0, "", "")
    assert out.read_bytes() == data


def test_stdout_through_a_pipe_equals_out_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symquad.__file__)))
    for n, argv in enumerate(OUTPUT_ARGVS):
        out = tmp_path / f"out{n}"
        piped = subprocess.run([sys.executable, "-m", "symquad.cli", *argv], capture_output=True, env=env, check=True)
        assert main(argv + ["--out", str(out)]) == 0
        assert piped.stdout == out.read_bytes()


def test_invalid_gammas_exit_code(capsys, small_rule_file, tmp_path):
    gammas = write_json(tmp_path / "g.json", {"dim": 3, "gammas": [0.5, 0.9, 0.1]})
    code, _, err = run(
        capsys,
        ["certify", "--rule", small_rule_file, "--invariant", "1-2", "--alpha", "2", "--weighted", "--gammas", gammas],
    )
    assert code == 1
    assert "non-increasing" in err


def _normalize(text):
    return re.sub(r"\s+", " ", text).strip()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("main", ["--help"]),
        ("nabla", ["nabla", "--help"]),
        ("rule", ["rule", "--help"]),
        ("integrate", ["integrate", "--help"]),
        ("wce", ["wce", "--help"]),
        ("certify", ["certify", "--help"]),
        ("weights", ["weights", "--help"]),
        ("tract", ["tract", "--help"]),
        ("bench", ["bench", "--help"]),
    ],
)
def test_help_golden(capsys, name, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    golden = (GOLDEN / f"help_{name}.txt").read_text()
    assert _normalize(out) == _normalize(golden)


@pytest.mark.parametrize(
    "dim, invariant, alpha, reason",
    [
        ("4", "1-2", "1100", "at 12 nodes the closed form underflows: 2^(1-alpha) is below 4.9e-324"),
        ("400", "1-400", "1.01", "at 401 nodes the closed form exceeds the float range (1.8e308)"),
        # the default tol of 1e-9 is below zeta's floor here, and the refusal asks for the floor
        ("4", "1-2", "1.0000001", "at 12 nodes the folded rule achieves error <= 1e+28"),
    ],
)
def test_certify_refusal_outside_the_float_range_exits_2(capsys, tmp_path, dim, invariant, alpha, reason):
    rule, cert = str(tmp_path / "r.json"), tmp_path / "cert.json"
    run(capsys, ["rule", "--folded", "-d", dim, "--invariant", invariant, "--out", rule])  # at the threshold
    argv = ["certify", "--rule", rule, "--invariant", invariant, "--alpha", alpha, "--out", str(cert)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("refused: rule uses") and err.rstrip().endswith(reason)
    assert not cert.exists()


def test_wce_for_large_alpha_exits_0(capsys):
    code, out, err = run(capsys, ["wce", "-d", "3", "--alpha", "1025"])
    assert (code, err) == (0, "")
    assert 0 < json.loads(out)["closed_form"] < 1e-300


@pytest.mark.parametrize(
    "argv, count",
    [
        (["nabla", "-d", "20000"], "at least 2^20000"),
        (["rule", "--rectangle", "-d", "20000"], "at least 2^20000"),
        (["rule", "--folded", "-d", "20000", "--invariant", "1-2"], "at least 2^19999"),  # 3 * 2^19998
        (["rule", "--rectangle", "-d", "27"], "134217728"),
    ],
)
def test_an_enumeration_beyond_the_cap_is_refused_in_one_line_at_any_d(capsys, argv, count):
    expected = f"error: enumeration of {count} representatives exceeds cap 67108864\n"
    assert run(capsys, argv) == (1, "", expected)


@pytest.mark.parametrize("flag", ["--invariant", "--groups"])
def test_a_range_past_d_is_refused_before_it_is_built(capsys, flag):
    build_parser()  # built once and cached, outside the measurement
    tracemalloc.start()
    try:
        code = main(["rule", "-d", "3", "--folded", flag, "1-2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (1, "", "error: coordinate 2000000 outside 1..3\n")
    assert peak < 1 << 20


BIG_INT = "1" + "0" * 5000  # an int of 5,001 digits: Python reads at most 4,300 from text
GOOD_RULE = '{"dim": 1, "nodes": [[0.5]], "weights": [{"re": 1.0, "im": 0.0}]}'


@pytest.mark.parametrize(
    "text, argv, words",
    [
        ('{"samples": [[%s, 0]]}' % BIG_INT, ["tract", "--profile", "BAD"], "Exceeds the limit (4300 digits)"),
        ('{"dim": 1, "terms": [{"k": [%s], "re": 1.0, "im": 0.0}]}' % BIG_INT,
         ["integrate", "--rule", "GOOD", "--poly", "BAD"], "Exceeds the limit (4300 digits)"),
        ('{"dim": 3, "gammas": [%s, 1, 1]}' % BIG_INT, ["weights", "-d", "3", "--gammas", "BAD"], "Exceeds the limit"),
        ("{not json", ["certify", "--rule", "BAD", "--alpha", "2"], "Expecting property name"),
        ("{not json", ["integrate", "--rule", "GOOD", "--poly", "BAD"], "Expecting property name"),
    ],
    ids=["profile", "poly", "gammas", "rule", "poly-not-json"],
)
def test_json_that_cannot_be_decoded_is_named_by_its_file(capsys, tmp_path, text, argv, words):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(GOOD_RULE)
    code, out, err = run(capsys, [{"BAD": str(bad), "GOOD": str(good)}.get(arg, arg) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ") and words in err and err.count("\n") == 1
