"""Node-count bounds and finite-scale tractability screening."""

import math

import pytest

from symquad import (
    InvarianceProfile,
    InvariancePattern,
    critical_node_count,
    evaluate_profile,
    node_count_lower_bound,
)
from symquad.tractability import (
    VERDICT_CONSISTENT,
    VERDICT_EXCLUDED,
    VERDICT_NOT_EVALUABLE,
)


def profile_from_rule(dims, invariant_of):
    return InvarianceProfile(tuple((d, invariant_of(d)) for d in dims))


def test_lower_bound_examples():
    p5 = InvariancePattern.full(5)
    for eps in (0.01, 0.5, 0.999):
        assert node_count_lower_bound(eps, p5) == 6
    assert node_count_lower_bound(1.0, p5) == 0
    assert node_count_lower_bound(2.0, p5) == 0
    assert node_count_lower_bound(0.5, InvariancePattern.trivial(4)) == 16
    with pytest.raises(ValueError):
        node_count_lower_bound(0.0, p5)
    with pytest.raises(ValueError):
        node_count_lower_bound(-0.5, p5)


def test_lower_bound_constant_in_epsilon():
    p = InvariancePattern.single(6, (1, 2, 3))
    values = {node_count_lower_bound(e, p) for e in (1e-6, 0.1, 0.25, 0.5, 0.75, 0.99)}
    assert values == {critical_node_count(p)}


def test_exact_big_integers():
    p = InvariancePattern.trivial(100)
    assert node_count_lower_bound(0.5, p) == 2**100


def test_monotone_in_free_count():
    for d in range(1, 21):
        counts = [
            critical_node_count(InvariancePattern.single(d, range(1, i + 1)))
            for i in range(d, -1, -1)
        ]  # free count b grows along the list
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_profile_validation():
    with pytest.raises(ValueError):
        InvarianceProfile([(4, 5)])
    with pytest.raises(ValueError):
        InvarianceProfile([(4, 2), (4, 3)])


def test_fully_invariant_profile():
    profile = profile_from_rule((2, 4, 8, 16, 32), lambda d: d)
    report = evaluate_profile(profile, ((1.0, 1.0),))
    assert report.node_counts == (3, 5, 9, 17, 33)
    assert report.verdicts["curse"] == VERDICT_EXCLUDED
    assert report.verdicts["strong_polynomial"] == VERDICT_EXCLUDED
    assert report.verdicts["polynomial"] == VERDICT_CONSISTENT
    assert report.st_weak[(1.0, 1.0)] == VERDICT_CONSISTENT


def test_fully_invariant_profile_small_t_needs_larger_samples():
    # ln(d+1) / (2**s + d**t) rises before it falls for t = 0.5; the
    # at-scale verdict only turns consistent once the samples pass the hump.
    small = profile_from_rule((2, 4, 8, 16, 32), lambda d: d)
    report = evaluate_profile(small, ((0.5, 0.5),))
    assert report.st_weak[(0.5, 0.5)] == VERDICT_EXCLUDED
    large = profile_from_rule((16, 32, 64, 128, 256), lambda d: d)
    report = evaluate_profile(large, ((0.5, 0.5),))
    assert report.st_weak[(0.5, 0.5)] == VERDICT_CONSISTENT


def test_free_profile_keeps_curse():
    profile = profile_from_rule((4, 8, 16, 32, 64), lambda d: 0)
    report = evaluate_profile(profile, ((1.0, 1.0),))
    assert report.verdicts["curse"] == VERDICT_CONSISTENT
    assert report.st_weak[(1.0, 1.0)] == VERDICT_EXCLUDED
    # log-ratio tends to log 2 on the tail
    tail_value = report.log_ratios[(1.0, 1.0)][-1]
    assert tail_value == pytest.approx(math.log(2), rel=0.1)
    assert report.verdicts["polynomial"] == VERDICT_EXCLUDED


def test_log_free_profile_polynomial_consistent():
    dims = (4, 8, 16, 32, 64, 128)
    profile = profile_from_rule(dims, lambda d: d - int(math.floor(math.log(d))))
    report = evaluate_profile(profile, ((1.0, 1.0),))
    assert report.verdicts["polynomial"] == VERDICT_CONSISTENT
    assert report.verdicts["curse"] == VERDICT_EXCLUDED


def test_small_sample_not_evaluable():
    profile = InvarianceProfile([(2, 1), (4, 2)])
    report = evaluate_profile(profile, ((1.0, 1.0),))
    assert report.verdicts["polynomial"] == VERDICT_NOT_EVALUABLE
    assert report.verdicts["curse"] == VERDICT_NOT_EVALUABLE
    assert report.st_weak[(1.0, 1.0)] == VERDICT_NOT_EVALUABLE


def test_sample_order_independent():
    rows = [(16, 8), (2, 1), (8, 4), (4, 2), (32, 16)]
    a = evaluate_profile(InvarianceProfile(rows), ((1.0, 1.0),))
    b = evaluate_profile(InvarianceProfile(list(reversed(rows))), ((1.0, 1.0),))
    assert a == b


def test_grid_validation():
    profile = profile_from_rule((2, 4, 8), lambda d: d)
    with pytest.raises(ValueError):
        evaluate_profile(profile, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        evaluate_profile(profile, ((1.0, 1.5),))


def test_polynomial_needs_three_samples_with_d_at_least_2():
    # ln(1) = 0, so a d = 1 sample gives no free_count / ln d ratio
    report = evaluate_profile(InvarianceProfile([(1, 0), (2, 1), (4, 2)]), ((1.0, 1.0),))
    assert report.verdicts["polynomial"] == VERDICT_NOT_EVALUABLE
    assert report.verdicts["curse"] != VERDICT_NOT_EVALUABLE
    assert "polynomial check needs at least 3 samples with d >= 2" in report.notes


@pytest.mark.parametrize("tag", [None, "half-invariant"])
def test_profile_json_round_trip(tag):
    profile = InvarianceProfile([(8, 4), (2, 1), (4, 2)], tag)
    data = profile.to_json_dict()
    assert ("tag" in data) == (tag is not None)
    assert InvarianceProfile.from_json_dict(data) == profile
