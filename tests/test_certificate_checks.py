"""The acceptance checks of both certificate constructors and the residuals they report.

Each failing case patches one name so that one check sees an excess, and
pins the exception type, its message and the residual keys it carries.
"""

import math

import numpy as np
import pytest

from symquad import (
    CertificateError,
    CubatureRule,
    InvariancePattern,
    WeightSchedule,
    construct_certificate,
    construct_weighted_certificate,
)
from symquad import fooling, weighted

UNWEIGHTED_KEYS = {"integral_deviation", "norm_excess", "nullspace", "rule_value"}
WEIGHTED_KEYS = UNWEIGHTED_KEYS | {"integral_floor_deficit", "weighted_ball_excess", "weighted_norm_excess"}
PATTERN = InvariancePattern.single(3, (1, 2))  # six canonical 0/1 vectors


@pytest.fixture
def rule():
    rng = np.random.default_rng(21)
    return CubatureRule(3, rng.random((5, 3)), rng.standard_normal(5) + 1j * rng.standard_normal(5))


def tolerance_after(calls, monkeypatch):
    """Make ``weight_abs_sum`` negative from call ``calls + 1`` on, so that the rule-value bound is below 0."""
    real = CubatureRule.weight_abs_sum
    seen = []

    def fake(self):
        seen.append(self)
        return real(self) if len(seen) <= calls else -2.0

    monkeypatch.setattr(CubatureRule, "weight_abs_sum", fake)


def ranked_with(weights, monkeypatch):
    """Keep the weight ordering of the modes but report ``weights`` for it."""
    real = weighted._ranked_weights
    monkeypatch.setattr(weighted, "_ranked_weights", lambda p, s: (real(p, s)[0], np.asarray(weights, dtype=float)))


def test_residual_keys_of_valid_certificates(rule):
    plain = construct_certificate(rule, PATTERN, 2.0)
    assert set(plain.residuals) == UNWEIGHTED_KEYS
    assert list(plain.to_json_dict()["residuals"]) == sorted(UNWEIGHTED_KEYS)
    cert = construct_weighted_certificate(rule, PATTERN, 2.0, WeightSchedule(3, (1.0, 0.5, 0.25)))
    assert set(cert.residuals) == WEIGHTED_KEYS
    assert list(cert.to_json_dict()["residuals"]) == sorted(WEIGHTED_KEYS)
    assert cert.residuals["rule_value"] == abs(cert.rule_value)
    assert cert.residuals["rule_value"] <= plain.residuals["rule_value"]  # the scale is at most 1


REAL_TERMS = fooling._certificate_terms


def doubled_terms(*args):
    keys, values = REAL_TERMS(*args)
    return keys, 2.0 * values


@pytest.mark.parametrize(
    "name, fake, key, excess",
    [
        ("apply_rule", lambda rule, poly: 1e-3 + 0j, "rule_value", 1e-3),
        ("korobov_norm", lambda poly, alpha: 1.5, "norm_excess", 0.5),
        ("_certificate_terms", doubled_terms, "integral_deviation", 1.0),
    ],
)
def test_unweighted_check_failures(monkeypatch, rule, name, fake, key, excess):
    monkeypatch.setattr(fooling, name, fake)
    with pytest.raises(CertificateError, match="^certificate verification failed$") as err:
        construct_certificate(rule, PATTERN, 2.0)
    assert set(err.value.residuals) == UNWEIGHTED_KEYS
    assert err.value.residuals[key] == pytest.approx(excess, rel=1e-12)


def test_a_nan_rule_value_fails_verification(monkeypatch, rule):
    monkeypatch.setattr(fooling, "apply_rule", lambda rule, poly: complex(math.nan, 0.0))
    with pytest.raises(CertificateError, match="^certificate verification failed$") as err:
        construct_certificate(rule, PATTERN, 2.0)
    assert math.isnan(err.value.residuals["rule_value"])


def test_unweighted_rule_value_tolerance(monkeypatch, rule):
    tolerance_after(0, monkeypatch)
    with pytest.raises(CertificateError, match="^certificate verification failed$") as err:
        construct_certificate(rule, PATTERN, 2.0)
    assert set(err.value.residuals) == UNWEIGHTED_KEYS


def test_weighted_constructor_checks_the_unweighted_certificate_first(monkeypatch, rule):
    tolerance_after(0, monkeypatch)
    with pytest.raises(CertificateError, match="^certificate verification failed$") as err:
        construct_weighted_certificate(rule, PATTERN, 2.0, WeightSchedule(3, (1.0, 0.5, 0.25)))
    assert set(err.value.residuals) == UNWEIGHTED_KEYS


def test_weighted_rule_value_tolerance(monkeypatch, rule):
    tolerance_after(1, monkeypatch)
    with pytest.raises(CertificateError, match="^weighted certificate verification failed$") as err:
        construct_weighted_certificate(rule, PATTERN, 2.0, WeightSchedule(3, (1.0, 0.5, 0.25)))
    assert set(err.value.residuals) == WEIGHTED_KEYS


def test_weighted_coefficient_on_a_zero_weight_frequency(monkeypatch, rule):
    ranked_with(np.ones(6), monkeypatch)  # the scale is 1, but the third coordinate weighs 0
    with pytest.raises(CertificateError, match="^coefficient on a zero-weight frequency$") as err:
        construct_weighted_certificate(rule, PATTERN, 2.0, WeightSchedule(3, (1.0, 1.0, 0.0)))
    assert set(err.value.residuals) == UNWEIGHTED_KEYS | {"weighted_ball_excess"}
    assert err.value.residuals["weighted_ball_excess"] > 1e-12


def test_weighted_product_inequality(monkeypatch, rule):
    ranked_with(np.ones(6), monkeypatch)  # the scale is 1, but every nonzero frequency weighs below 1
    with pytest.raises(CertificateError, match="^weight product inequality violated on the support$") as err:
        construct_weighted_certificate(rule, PATTERN, 2.0, WeightSchedule(3, (0.5, 0.5, 0.5)))
    assert set(err.value.residuals) == UNWEIGHTED_KEYS | {"weight_product_excess"}
    assert err.value.residuals["weight_product_excess"] == pytest.approx(1 - 0.5**3, rel=1e-12)  # 1 - weight(1, 1, 1)


def test_weighted_integral_floor(monkeypatch, rule):
    pivot = construct_certificate(rule, PATTERN, 2.0).solution.pivot_index
    assert pivot != 5  # so the scale below is sqrt(0.5 * 1e-4)
    ranked_with([1e-4] * 5 + [0.5], monkeypatch)
    with pytest.raises(CertificateError, match="^weighted certificate verification failed$") as err:
        construct_weighted_certificate(rule, PATTERN, 2.0, WeightSchedule(3, (1.0, 1.0, 1.0)))
    assert set(err.value.residuals) == WEIGHTED_KEYS
    assert err.value.residuals["integral_floor_deficit"] == pytest.approx(0.5 - np.sqrt(0.5e-4), rel=1e-12)
