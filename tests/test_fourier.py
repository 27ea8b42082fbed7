"""Polynomial container, evaluation, arithmetic, and JSON form."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symquad.fourier as fourier
from symquad import DimensionMismatchError, FourierPolynomial, evaluate_at_points, korobov_norm, random_polynomial


def mp_eval(f, x):
    """Extended-precision term-by-term evaluation oracle."""
    with mpmath.workdps(40):
        acc = mpmath.mpc(0)
        for k, c in f.terms.items():
            phase = mpmath.fsum(km * mpmath.mpf(xm) for km, xm in zip(k, x))
            acc += mpmath.mpc(c) * mpmath.expjpi(2 * phase)
        return complex(acc)


def test_eval_constant():
    f = FourierPolynomial(3, {(0, 0, 0): 2.5 - 1j})
    assert f((0.1, 0.9, 0.4)) == 2.5 - 1j


def test_eval_single_mode():
    f = FourierPolynomial(1, {(1,): 1.0})
    assert f((0.5,)) == pytest.approx(-1.0, abs=1e-14)


def test_eval_matches_high_precision_oracle():
    rng = np.random.default_rng(42)
    f = random_polynomial(4, 20, rng, max_magnitude=6)
    for _ in range(5):
        x = tuple(rng.random(4))
        got = f(x)
        want = mp_eval(f, x)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_eval_periodicity():
    rng = np.random.default_rng(7)
    f = random_polynomial(3, 12, rng, max_magnitude=3)
    x = tuple(rng.random(3))
    total = sum(abs(c) for c in f.terms.values())
    for axis in range(3):
        shifted = tuple(v + (1.0 if i == axis else 0.0) for i, v in enumerate(x))
        assert abs(f(x) - f(shifted)) <= 1e-12 * (1 + total)


def test_integral_is_zero_coefficient():
    assert FourierPolynomial(1, {(0,): 3 + 1j}).integral() == 3 + 1j
    assert FourierPolynomial(2, {(1, 0): 5.0}).integral() == 0


def test_canonical_form_drops_zeros():
    f = FourierPolynomial(2, {(1, 1): 0.0, (0, 1): 2.0})
    assert f.support() == ((0, 1),)
    assert len(f) == 1


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        FourierPolynomial(1, [((1,), 1.0), ((1,), 2.0)])


def test_dimension_validation():
    with pytest.raises(DimensionMismatchError):
        FourierPolynomial(2, {(1, 2, 3): 1.0})
    f = FourierPolynomial(2, {(1, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        f((0.1, 0.2, 0.3))
    for points in ([[0.1, 0.2, 0.3]], [0.1, 0.2], [[[0.1, 0.2]]]):
        with pytest.raises(DimensionMismatchError, match=r"points must have shape \(n, 2\)"):
            evaluate_at_points(f, points)


def test_json_roundtrip():
    f = FourierPolynomial(2, {(1, -2): 0.5 + 0.25j, (0, 0): -1.0})
    again = FourierPolynomial.from_json(f.to_json())
    assert again == f


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        FourierPolynomial.from_json(json.dumps({"dim": 2, "terms": [{"k": [1], "re": 1, "im": 0}]}))
    doubled = {"dim": 1, "terms": [{"k": [3], "re": 1, "im": 0}, {"k": [3], "re": 2, "im": 0}]}
    with pytest.raises(ValueError):
        FourierPolynomial.from_json(json.dumps(doubled))


def _case_random(dim, n_terms, magnitude):
    def build(rng):
        return random_polynomial(dim, n_terms, rng, max_magnitude=magnitude), rng.random((20, dim))
    return build


def _case_certificate_shaped(rng):
    # a dense support in {-1,0,1}^d like a fooling certificate's: few distinct halves
    dim = 7
    keys = rng.integers(-1, 2, size=(1000, dim))
    terms = {tuple(k): complex(rng.standard_normal(), rng.standard_normal()) for k in keys.tolist()}
    return FourierPolynomial(dim, terms), rng.random((30, dim))


def _case_capped_keys(rng):
    # keys at +-(2^31 - 1): on the grid j/64 every phase k.t is exact, so the
    # scalar and the vectorized evaluation reduce the same phase mod 1
    dim, cap = 4, 2**31 - 1
    keys = rng.choice([-cap, -1, 0, cap], size=(300, dim))
    terms = {tuple(k): complex(rng.standard_normal(), rng.standard_normal()) for k in keys.tolist()}
    return FourierPolynomial(dim, terms), rng.integers(0, 64, size=(25, dim)) / 64


def _case_distinct_halves(rng):
    # every key has its own lower and its own upper half
    keys = [(i, -i, 2 * i, i + 1) for i in range(60)]
    return FourierPolynomial(4, {k: complex(rng.standard_normal(), 1.0) for k in keys}), rng.random((15, 4))


def _case_empty(rng):
    return FourierPolynomial(3, {}), rng.random((5, 3))


def _case_no_points(rng):
    return random_polynomial(4, 10, rng), np.zeros((0, 4))


@pytest.mark.parametrize(
    "build, single_table",
    [
        (_case_random(1, 9, 6), None),           # empty upper half
        (_case_random(2, 12, 3), None),
        (_case_random(3, 15, 4), None),
        (_case_random(5, 200, 1), False),        # odd d, a few distinct halves
        (_case_certificate_shaped, False),
        (_case_capped_keys, False),
        (_case_distinct_halves, True),           # must fall back to s = 0
        (_case_empty, None),
        (_case_no_points, None),
    ],
    ids=["d1", "d2", "d3", "d5", "certificate", "capped", "distinct-halves", "empty", "no-points"],
)
def test_evaluate_at_points_matches_scalar_eval(build, single_table, monkeypatch):
    f, pts = build(np.random.default_rng(3))
    shapes = []

    def spy(phases):
        shapes.append(np.shape(phases))
        return exp_2pi_i(phases)

    exp_2pi_i = fourier.exp_2pi_i
    monkeypatch.setattr(fourier, "exp_2pi_i", spy)
    values = evaluate_at_points(f, pts)
    assert values.shape == (len(pts),)
    total = sum(abs(c) for c in f.terms.values())
    for row, v in zip(pts, values):
        assert abs(v - f(tuple(row))) <= 1e-12 * (1 + total)
    exponentials = sum(rows * cols for rows, cols in shapes)
    if single_table:  # one exponential per node and term, plus the constant lower table
        assert sorted(shapes) == [(len(pts), 1), (len(pts), len(f))]
    elif single_table is False:
        assert exponentials < len(pts) * len(f) / 3


def test_product_is_pointwise_multiplication():
    rng = np.random.default_rng(11)
    f = random_polynomial(2, 6, rng, max_magnitude=2)
    g = random_polynomial(2, 5, rng, max_magnitude=2)
    h = f * g
    for _ in range(4):
        x = tuple(rng.random(2))
        assert abs(h(x) - f(x) * g(x)) <= 1e-11 * (1 + abs(f(x) * g(x)))


def test_addition_and_scaling():
    f = FourierPolynomial(1, {(1,): 1.0})
    g = FourierPolynomial(1, {(1,): -1.0, (2,): 4.0})
    assert (f + g).terms == {(2,): 4.0 + 0j}
    assert (2j * f).terms == {(1,): 2j}
    assert (f - f).support() == ()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_empty_polynomial_evaluates_to_zero(dim):
    f = FourierPolynomial(dim, {})
    assert f((0.25,) * dim) == 0
    assert f.integral() == 0


def test_large_frequency_at_half_is_exact():
    f = FourierPolynomial(1, {(2**31 - 1,): 1})
    assert abs(evaluate_at_points(f, [[0.5]])[0] + 1) <= 1e-15
    assert abs(f((0.5,)) + 1) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_dyadic_nodes_give_signs(data, dim):
    # k.x is a whole multiple of 1/2 at the nodes j/2, so reducing it mod 1
    # before the exponential leaves only the rounding of sin(pi)
    k = data.draw(st.lists(st.integers(-(2**31) + 1, 2**31 - 1), min_size=dim, max_size=dim))
    j = data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    f = FourierPolynomial(dim, {tuple(k): 1})
    point = [jm / 2 for jm in j]
    sign = (-1) ** sum(km * jm for km, jm in zip(k, j))
    assert abs(evaluate_at_points(f, [point])[0] - sign) <= 1e-15
    assert abs(f(point) - sign) <= 1e-15


# ---------------------------------------------------------------------------
# the array form: constructor checks, and arithmetic against the dict loops it replaced


@pytest.mark.parametrize(
    "key, outcome",
    [
        ((True, 0), (1, 0)),
        ((2.0, 1), (2, 1)),
        ((np.int64(3), -1), (3, -1)),
        ((Fraction(4), 0), (4, 0)),
        ((2**31 - 1, -(2**31) + 1), (2**31 - 1, -(2**31) + 1)),
        ((1.7, 1), ValueError),
        (("1", 0), ValueError),
        ((math.nan, 0), ValueError),
        ((math.inf, 0), ValueError),
        ((2**40, 0), ValueError),
        ((2**31, 0), ValueError),
        ((2**70, 0), ValueError),
        ((1 + 0j, 0), ValueError),
        ((None, 0), ValueError),
        (((1,), 0), ValueError),
        ((1, 0, 0), DimensionMismatchError),
        ((1,), DimensionMismatchError),
        ((np.int64(3), 0), (3, 0)),
        ((2**63, -1), ValueError),
        ((2**64, 0), ValueError),
    ],
    ids=["bool", "integral-float", "int64", "fraction", "at-cap", "fraction-float", "string", "nan", "inf",
         "2^40", "2^31", "2^70", "complex", "none", "nested", "too-long", "too-short",
         "int64-beside-0", "2^63-beside-negative", "2^64"],
)
def test_constructor_accepts_and_refuses_keys(key, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            FourierPolynomial(2, {key: 1.0})
        with pytest.raises(outcome):  # beside a valid key, in pair form
            FourierPolynomial(2, [((0, 0), 1.0), (key, 1.0)])
    else:
        f = FourierPolynomial(2, [((0, 0), 1.0), (key, 2.5)])
        assert f.support() == tuple(sorted([(0, 0), outcome]))
        assert f.coefficient(outcome) == 2.5


def test_constructor_checks_coefficients_and_collisions():
    f = FourierPolynomial(1, {(1,): Fraction(1, 4), (2,): np.float32(0.5), (3,): 0, (4,): 0j})
    assert f.terms == {(1,): 0.25, (2,): 0.5}
    for bad in (math.nan, complex(0, math.inf), "x"):
        with pytest.raises(ValueError):
            FourierPolynomial(1, {(1,): bad})
    with pytest.raises(ValueError, match="duplicate"):
        FourierPolynomial(1, [([1], 1.0), ([1.0], 2.0)])
    with pytest.raises(DimensionMismatchError):
        FourierPolynomial(2, [((1, 0), 1.0), ((1,), 1.0)])  # ragged keys
    with pytest.raises(ValueError):
        FourierPolynomial(1, [((1,), 1.0, 2.0)])


def test_keys_and_coeffs_are_the_read_only_canonical_form():
    f = random_polynomial(3, 40, np.random.default_rng(5), max_magnitude=3)
    assert f.keys.dtype == np.int64 and f.keys.shape == (len(f), 3)
    assert f.coeffs.dtype == np.complex128 and f.coeffs.shape == (len(f),)
    assert [tuple(k) for k in f.keys.tolist()] == sorted(f.terms) == list(f.terms)
    assert np.all(f.coeffs != 0)
    for array in (f.keys, f.coeffs):
        with pytest.raises(ValueError):
            array[0] = 0
    assert FourierPolynomial(2).keys.shape == (0, 2)
    assert hash(FourierPolynomial(1, {(1,): complex(-0.0, 1)})) == hash(FourierPolynomial(1, {(1,): 1j}))


def reference_add(f, g):
    out = dict(f.terms)
    for k, c in g.terms.items():
        out[k] = out.get(k, 0j) + c
    return reference_terms(out)


def reference_mul(f, g):
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, 0j) + c1 * c2
    return reference_terms(out)


def reference_scale(factor, f):
    return reference_terms({k: complex(factor) * c for k, c in f.terms.items()})


def reference_terms(out):
    if any(abs(e) > fourier.MAX_INDEX_MAGNITUDE for k in out for e in k):
        raise ValueError("exceeds magnitude cap")
    return [(k, c) for k, c in sorted(out.items()) if c != 0]


def reference_korobov_norm(f, alpha):
    return max((abs(c) * float(math.prod(map(abs, filter(None, k)))) ** alpha for k, c in f.terms.items()),
               default=0.0)


def term_bits(terms):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in terms]


def arithmetic_cases():
    rng = np.random.default_rng(30)
    for n in range(60):
        dim = int(rng.integers(1, 5))
        magnitude = int(rng.integers(0, 4))
        yield (random_polynomial(dim, int(rng.integers(0, 12)), rng, magnitude),
               random_polynomial(dim, int(rng.integers(0, 12)), rng, magnitude))
    f = random_polynomial(3, 10, rng, 2)
    yield f, (-1.0) * f  # everything cancels
    yield f, FourierPolynomial(3, {k: 1j * c for k, c in f.terms.items()})
    # parts that are -0.0, on keys of one operand only and of both
    zeros = {(0,): complex(-0.0, 1.0), (1,): complex(2.0, -0.0), (2,): complex(-0.0, -3.0)}
    yield FourierPolynomial(1, zeros), FourierPolynomial(1, {(2,): complex(-0.0, 3.0), (5,): complex(-0.0, -0.0) + 1})
    cap = fourier.MAX_INDEX_MAGNITUDE
    yield FourierPolynomial(2, {(cap, 0): 1.0, (0, -cap): 2j}), FourierPolynomial(2, {(-1, 0): 0.5, (0, 1): 1.5})
    yield FourierPolynomial(2, {(cap, 0): 1.0}), FourierPolynomial(2, {(1, 0): 1.0})  # the product is over the cap


def outcome(op, *args):
    try:
        return op(*args)
    except ValueError:
        return ValueError


def test_add_mul_and_scale_match_the_dict_loops():
    cases = 0
    for f, g in arithmetic_cases():
        got, want = outcome(lambda: list((f + g).terms.items())), outcome(reference_add, f, g)
        assert [k for k, _ in got] == [k for k, _ in want]
        assert [c for _, c in got] == [c for _, c in want]  # a zero part may differ in sign
        got, want = outcome(lambda: list((f * g).terms.items())), outcome(reference_mul, f, g)
        if want is ValueError:
            assert got is ValueError
        else:
            assert term_bits(got) == term_bits(want)
        for factor in (2.5, -1.0, 0.3 - 0.7j, 1j, 0, np.complex128(1e-3 + 2j)):
            assert term_bits((factor * f).terms.items()) == term_bits(reference_scale(factor, f))
            assert term_bits((f * factor).terms.items()) == term_bits(reference_scale(factor, f))
        cases += 1
    assert cases >= 60


def test_korobov_norm_matches_the_dict_loop():
    cap = fourier.MAX_INDEX_MAGNITUDE
    wide = FourierPolynomial(3, {(cap, cap, 3): 0.5, (cap, -cap, 1): 0.25j, (cap, 2, -2): 1e-30, (1, 1, 1): 2.0})
    assert math.prod((cap, cap, 3)) > 2**63
    cases = [wide, FourierPolynomial(2)] + [f for pair in arithmetic_cases() for f in pair]
    for f in cases:
        for alpha in (1.5, 2.0, 3.7):
            assert korobov_norm(f, alpha).hex() == reference_korobov_norm(f, alpha).hex()


# ---------------------------------------------------------------------------
# grouping equal rows


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
def test_distinct_rows_are_lexicographic_and_the_inverse_maps_back(dtype):
    block = np.random.default_rng(3).integers(0, 3, (300, 4)).astype(dtype)[:, ::-1]  # a strided view
    rows, inverse = fourier._distinct_rows(block)
    assert np.array_equal(rows[inverse], block)
    assert list(map(tuple, rows.tolist())) == sorted(set(map(tuple, block.tolist())))
    unique, unique_inverse = np.unique(block, axis=0, return_inverse=True)
    assert np.array_equal(rows, unique) and np.array_equal(inverse, unique_inverse.reshape(-1))


@pytest.mark.parametrize(
    "block",
    [
        np.array([[-100, 100], [100, -100], [-100, 100], [0, -1]], dtype=np.int8),  # a span int8 cannot hold
        np.array([[2**64 - 1, 2**64 - 2], [2**64 - 2, 2**64 - 1], [2**64 - 1, 2**64 - 2]], dtype=np.uint64),
        np.array([1.5 + 0j, 2.0**-40, 1.5, 3.0]).view(np.uint64).reshape(-1, 2),  # real weights' bit patterns
        np.array([[-(2**62), 2**62], [2**62, -(2**62)], [-(2**62), 2**62]], dtype=np.int64),  # too wide to code
        np.random.default_rng(4).integers(-1, 2, (200, 40)),  # 3^40 codes overflow int64
    ],
)
def test_distinct_rows_agree_with_unique_for_any_integer_span(block):
    rows, inverse = fourier._distinct_rows(block)
    unique, unique_inverse = np.unique(block, axis=0, return_inverse=True)
    assert np.array_equal(rows, unique) and np.array_equal(inverse, unique_inverse.reshape(-1))


def test_distinct_rows_compare_floats_by_value_and_their_bits_by_pattern():
    values = np.array([[0.0], [-0.0], [1.5], [0.0]])
    rows, inverse = fourier._distinct_rows(values)
    assert rows.tolist() == [[0.0], [1.5]] and inverse.tolist() == [0, 0, 1, 0]
    bits = values.view(np.uint64)
    rows, inverse = fourier._distinct_rows(bits)
    assert np.array_equal(rows[inverse], bits) and len(rows) == 3


@pytest.mark.parametrize("shape, n_rows", [((0, 3), 0), ((4, 0), 1), ((0, 0), 0)])
def test_distinct_rows_of_empty_blocks(shape, n_rows):
    rows, inverse = fourier._distinct_rows(np.zeros(shape, dtype=np.int64))
    assert rows.shape == (n_rows, shape[1])
    assert inverse.tolist() == [0] * shape[0]


# ---------------------------------------------------------------------------
# reading frequency entries from JSON: one flattened pass over all the keys

CAP_MESSAGE = "a frequency vector exceeds magnitude cap 2147483647"
NOT_A_NUMBER = "polynomial JSON holds a boolean or a string where a number belongs"


@pytest.mark.parametrize(
    "entry, outcome",
    [
        (2.0, 2),
        (2**31 - 1, 2**31 - 1),
        (1.7, "frequency entry 1.7 is not integral"),
        (True, NOT_A_NUMBER),
        ("1", NOT_A_NUMBER),
        (2**31, CAP_MESSAGE),
        (-(2**31), CAP_MESSAGE),
        (2**63, CAP_MESSAGE),
        (-(2**63), CAP_MESSAGE),
        (2**70, CAP_MESSAGE),
        (math.nan, "cannot convert float NaN to integer"),
        (1e300, CAP_MESSAGE),
        (None, "frequency entry None is not an integer"),
        ({}, "frequency entry {} is not an integer"),
        (np.array(3), 3),
        (np.array([1]), "a frequency vector has a non-integer entry"),
    ],
    ids=["integral-float", "at-cap", "fraction-float", "bool", "string", "2^31", "-2^31", "2^63", "-2^63", "2^70",
         "nan", "1e300", "none", "object", "0-d-array", "1-d-array"],
)
def test_json_key_entries_read_or_refused_as_before(entry, outcome):
    # the entry sits beside plain ints, in a key of its own and after a valid key
    data = {"dim": 2, "terms": [{"k": [1, 0], "re": 1.0, "im": 0.0}, {"k": [0, entry], "re": 2.5, "im": 0.0}]}
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as err:
            FourierPolynomial.from_json_dict(data)
        assert type(err.value) is ValueError and str(err.value) == outcome
    else:
        f = FourierPolynomial.from_json_dict(data)
        assert f.keys.tolist() == sorted([[0, outcome], [1, 0]])
        assert f.coefficient((0, outcome)) == 2.5


@pytest.mark.parametrize("entry", [[1], [1, 2], [], [[0]]], ids=["list", "pair", "empty", "nested"])
def test_sequence_entries_are_refused_with_the_library_message(entry):
    # numpy would read a sequence entry as a row of its own and say so in its own words
    message = "a frequency vector has a non-integer entry"
    for k in ([entry, 0], [0, entry]):
        data = {"dim": 2, "terms": [{"k": [1, 0], "re": 1.0, "im": 0.0}, {"k": k, "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError) as err:
            FourierPolynomial.from_json_dict(data)
        assert type(err.value) is ValueError and str(err.value) == message
    for key in (((1,), 0), (0, (1, 2)), ((), 0)):
        with pytest.raises(ValueError) as err:
            FourierPolynomial(2, [((0, 0), 1.0), (key, 1.0)])
        assert type(err.value) is ValueError and str(err.value) == message


def test_array_entries_in_constructor_keys():
    # a 0-d array is its value; a 1-d one is refused in the library's words, not numpy's
    assert FourierPolynomial(2, [((np.array(3), 0), 1.0)]).keys.tolist() == [[3, 0]]
    with pytest.raises(ValueError) as err:
        FourierPolynomial(2, [((np.array([1]), 0), 1.0)])
    assert type(err.value) is ValueError and str(err.value) == "a frequency vector has a non-integer entry"


@pytest.mark.parametrize("big", [2**63, 2**64 - 1, 2**64, -(2**63) - 1])
@pytest.mark.parametrize("neighbour", [-1, -(2**31) + 1, 2.0])
def test_json_key_entries_beyond_int64_beside_other_kinds_meet_the_cap(big, neighbour):
    # beside a negative int numpy reads 2^63 as float64, beside a float every entry: both reach require_integral
    data = {"dim": 2, "terms": [{"k": [neighbour, 0], "re": 1.0, "im": 0.0}, {"k": [0, big], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError) as err:
        FourierPolynomial.from_json_dict(data)
    assert type(err.value) is ValueError and str(err.value) == CAP_MESSAGE


@pytest.mark.parametrize("dim", [0, -1])
def test_json_dimension_is_named_before_a_boolean_key(dim):
    data = {"dim": dim, "terms": [{"k": [True], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError) as err:
        FourierPolynomial.from_json_dict(data)
    assert str(err.value) == "dimension must be >= 1"


# JSON numbers near the edges, and entries that are no numbers (one of these replaces a number)
_NUMBERS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([2**31 - 1, -(2**31 - 1), 2**63, -(2**63), 2**64, 1.5, -0.0, 1e300, 2.0]),
)
_NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.none(),
    st.just("1"),
    st.lists(st.recursive(st.integers(-1, 1) | st.just(0.5), lambda inner: st.lists(inner, max_size=2)), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_from_json_dict_is_the_constructor_or_a_value_error(data, dim):
    term = st.fixed_dictionaries({"k": st.lists(_NUMBERS, min_size=dim, max_size=dim), "re": _NUMBERS, "im": _NUMBERS})
    terms = data.draw(st.lists(term, max_size=4))
    faulty = bool(terms) and data.draw(st.booleans())
    if faulty:
        entry, field = data.draw(st.sampled_from(terms)), data.draw(st.sampled_from(["k", "re", "im"]))
        target, slot = (entry["k"], data.draw(st.integers(0, dim - 1))) if field == "k" else (entry, field)
        target[slot] = data.draw(_NOT_NUMBERS)
    try:
        got = FourierPolynomial.from_json_dict({"dim": dim, "terms": terms})
    except ValueError as exc:
        assert type(exc) is ValueError
        got = str(exc)
    if faulty:
        assert isinstance(got, str)
        return
    try:
        want = FourierPolynomial(dim, [(tuple(t["k"]), complex(t["re"], t["im"])) for t in terms])
    except ValueError as exc:  # the same numbers are refused with the same words
        assert got == str(exc)
        return
    assert not isinstance(got, str), got
    assert got.keys.tobytes() == want.keys.tobytes() and got.coeffs.tobytes() == want.coeffs.tobytes()


def test_int_keys_beyond_int64_meet_the_cap_in_the_constructor_too():
    for big in (2**63, -(2**63) - 1, 2**64, 2**100):
        with pytest.raises(ValueError, match="magnitude cap"):
            FourierPolynomial(2, [((0, 0), 1.0), ((1, big), 1.0)])
