"""Command-line interface: schemas, exit codes, reproducibility, help text."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from symquad import fooling
from symquad.cli import main

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
