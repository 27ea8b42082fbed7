"""``certify`` JSON equals ``json.dumps`` of ``FoolingCertificate.to_json_dict()``, byte for byte.

``certify`` writes the polynomial's terms and the mode order from arrays
through ``cli._rows_text``: signed key rows as token cells, between the
head and tail texts of each distinct coefficient (``cli._classes``), which
are formatted once.  ``to_json_dict()`` stays the
reference form, written here with ``json.dumps(..., sort_keys=True)``.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symquad import cli
from symquad.cubature import CubatureRule
from symquad.errors import CertificateError, NullspaceError
from symquad.fooling import construct_certificate
from symquad.fourier import _from_sorted
from symquad.symmetry import InvariancePattern, critical_node_count, orbit_members
from symquad.weighted import WeightSchedule, construct_weighted_certificate

SIGNED = (b"-1", b"0", b"1")


def reference(cert):
    return (json.dumps({"schema_version": 1, **cert.to_json_dict()}, sort_keys=True) + "\n").encode()


def case_inputs(dim, block, n, seed, half, weighted):
    """The rule, pattern and weight schedule (or None) of one case.

    ``block`` is empty for the trivial pattern; ``half`` puts the nodes on
    the grid ``{0, 1/2}^d``, where every character is real.
    """
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, 2, (n, dim)) * 0.5 if half else rng.random((n, dim))
    rule = CubatureRule(dim, nodes, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    gammas = sorted(rng.uniform(0.3, 1.0, dim).tolist(), reverse=True)
    return rule, InvariancePattern.single(dim, block), WeightSchedule(dim, gammas) if weighted else None


def certificate(rule, pattern, schedule):
    if schedule is None:
        return construct_certificate(rule, pattern, 2.0)
    return construct_weighted_certificate(rule, pattern, 2.0, schedule)


@st.composite
def cases(draw):
    """``(dim, block, n, seed, half, weighted)``: d from 1 to 8, no block or one, n below the threshold."""
    dim = draw(st.integers(1, 8))
    size = draw(st.sampled_from([0, *range(2, dim + 1)]))
    block = tuple(sorted(draw(st.permutations(range(1, dim + 1)))[:size]))
    n = draw(st.integers(0, critical_node_count(InvariancePattern.single(dim, block)) - 1))
    return dim, block, n, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans())


#: Cases that random draws reach rarely or never; ``test_examples_are_what_they_name`` holds them to their names.
EXAMPLES = {
    "no nodes": (4, (1, 3), 0, 0, False, True),
    "d = 1": (1, (), 1, 1, False, False),
    "zero parts": (4, (1, 2, 3, 4), 1, 25, True, False),
    "pivot orbit": (5, (1, 2, 3, 4, 5), 3, 5, True, False),
}


def negated_zero_parts(cert):
    """``cert`` with the zero parts of every other coefficient written ``-0.0``.

    The constructors never make a ``-0.0`` part (their sums start at
    ``+0.0``), but the writer must keep one apart from ``0.0``, also where
    two coefficients differ in nothing else.
    """
    coeffs = cert.polynomial.coeffs.copy()
    for part in (coeffs.real[::2], coeffs.imag[::2]):
        part[part == 0] = -0.0
    return dataclasses.replace(cert, polynomial=_from_sorted(cert.pattern.dim, cert.polynomial.keys, coeffs))


@settings(max_examples=40, deadline=None)
@given(case=cases())
@example(case=EXAMPLES["no nodes"])
@example(case=EXAMPLES["d = 1"])
@example(case=EXAMPLES["zero parts"])
@example(case=EXAMPLES["pivot orbit"])
def test_certify_bytes_are_json_dumps_of_to_json_dict(case):
    rule, pattern, schedule = case_inputs(*case)
    with tempfile.TemporaryDirectory() as tmp:
        rule_path, out = os.path.join(tmp, "rule.json"), os.path.join(tmp, "out.json")
        with open(rule_path, "w", encoding="utf-8") as handle:
            json.dump(rule.to_json_dict(), handle)
        argv = ["certify", "--rule", rule_path, "--alpha", "2", "--out", out]
        if pattern.groups:
            argv += ["--invariant", ",".join(map(str, pattern.groups[0]))]
        if schedule is not None:
            gammas_path = os.path.join(tmp, "gammas.json")
            with open(gammas_path, "w", encoding="utf-8") as handle:
                json.dump(schedule.to_json_dict(), handle)
            argv += ["--weighted", "--gammas", gammas_path]
        try:
            cert = certificate(rule, pattern, schedule)
        except (NullspaceError, CertificateError):  # a numerical failure is exit 1, and nothing is written
            assert cli.main(argv) == 1 and not os.path.exists(out)
            return
        assert cli.main(argv) == 0
        with open(out, "rb") as handle:
            assert handle.read() == reference(cert)
    signed = negated_zero_parts(cert)
    assert cli._json_text(cli._certificate_payload(signed)) == reference(signed)


def test_examples_are_what_they_name():
    certs = {name: certificate(*case_inputs(*case)) for name, case in EXAMPLES.items()}
    assert certs["no nodes"].mode_order == ((0, 0, 0, 0),) and certs["no nodes"].weighted
    assert certs["d = 1"].pattern.dim == 1
    coeffs = certs["zero parts"].polynomial.coeffs
    assert np.any(coeffs.real == 0) and np.any(coeffs.imag == 0)
    pivot = certs["pivot orbit"]
    assert len(orbit_members(pivot.pattern, [pivot.mode_order[pivot.solution.pivot_index]])[0]) > 1


@pytest.mark.parametrize("n", range(6))
def test_json_list_signed_rows_and_head_texts_match_json_dumps(n):
    rng = np.random.default_rng(n)
    keys = rng.integers(-1, 2, size=(n, int(rng.integers(1, 5))))
    parts = np.array([0.0, -0.0, 0.5, -2.5, 1e-300, 123456.789])
    values = np.empty(n, dtype=np.complex128)  # set part by part: ``x + 1j * -0.0`` has imaginary part 0.0
    values.real, values.imag = rng.choice(parts, n), rng.choice(parts, n)
    re, im = values.real.tolist(), values.imag.tolist()

    assert cli._rows_text(keys + 1, SIGNED) == json.dumps(keys.tolist()).encode()
    classes, index = cli._classes(values)
    written = cli._rows_text(
        keys + 1, SIGNED, index,
        [f'{{"im": {z.imag!r}, "k": '.encode() for z in classes.tolist()],
        [f', "re": {z.real!r}}}'.encode() for z in classes.tolist()],
    )
    expected = [{"k": k, "re": r, "im": i} for k, r, i in zip(keys.tolist(), re, im)]
    assert written == json.dumps(expected, sort_keys=True).encode()


def test_json_list_tokens_of_any_width_match_json_dumps():
    rng = np.random.default_rng(7)
    tokens = [-1000, 7, 0, 123456, -3]
    index = rng.integers(0, len(tokens), size=(9, 4))
    written = cli._rows_text(index, [json.dumps(t).encode() for t in tokens], heads=[b'{"v": '], tails=[b"}"])
    assert written == json.dumps([{"v": [tokens[i] for i in row]} for row in index.tolist()]).encode()
