"""Bidiagonal pair/triple/triad verification and affine equivalence."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import triadtet as tt
from triadtet import RMatrix, Subspace
from triadtet.bdverify import _standard_ordering

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)
nonzero_rationals = small_rationals.filter(bool)


def test_find_ordering_single_eigenspace():
    decomp = tt.eigen_decompose(RMatrix.zero(1))
    ordering = tt.find_standard_ordering(decomp, [RMatrix.zero(1)])
    assert ordering.eigenvalues == (0,)
    assert ordering.diameter == 0


def test_find_ordering_counterexample(counterexample):
    doc, _ = counterexample
    decomp = tt.eigen_decompose(doc.a_dprime)
    ordering = tt.find_standard_ordering(decomp, [doc.a, doc.a_prime])
    assert ordering.eigenvalues == (-3, -1, 1, 3)


def test_find_ordering_d1_fixture(d1_doc):
    decomp = tt.eigen_decompose(d1_doc.a_dprime)
    ordering = tt.find_standard_ordering(decomp, [d1_doc.a, d1_doc.a_prime])
    assert ordering.eigenvalues == (-1, 1)
    assert ordering.eigenspaces[0] == Subspace.from_vectors(2, [(1, 0)])
    assert ordering.eigenspaces[1] == Subspace.from_vectors(2, [(0, 1)])


def test_find_ordering_ambiguous_with_zero_actor():
    decomp = tt.eigen_decompose(RMatrix.diagonal([0, 1, 2]))
    with pytest.raises(tt.AmbiguousOrdering):
        tt.find_standard_ordering(decomp, [RMatrix.zero(3)])


def test_find_ordering_ten_free_eigenspaces_is_ambiguous():
    """A zero actor forces no edge, so all 10! orderings are admissible."""
    decomp = tt.eigen_decompose(RMatrix.diagonal(list(range(10))))
    with pytest.raises(tt.AmbiguousOrdering):
        tt.find_standard_ordering(decomp, [RMatrix.zero(10)])


def _inverse(p: RMatrix) -> RMatrix:
    n = p.rows
    reduced, _ = tt.rref(RMatrix([p[r] + RMatrix.identity(n)[r] for r in range(n)]))
    return RMatrix([reduced[r][n:] for r in range(n)])


_SPARSE = st.sampled_from((0, 0, 0, 1, -1, 2))
_SMALL = st.sampled_from((0, 1, -1, 2, Fraction(1, 2)))
_UNIT = st.sampled_from((1, -1, 2, Fraction(-1, 3)))


@st.composite
def ordering_problems(draw):
    """A primary with at most 5 eigenspaces, some 2-dimensional, and actors.

    In the eigenbasis the raising and lowering actors mostly step along a
    hidden chain of the eigenspaces, with sparse entries and up to two
    stray entries anywhere; everything is then conjugated by a random
    invertible rational P = L U.
    """
    k = draw(st.integers(1, 5))
    dims = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    values = draw(st.permutations(range(-2, 3)))[:k]
    chain = draw(st.permutations(range(k)))
    block = [u for u in range(k) for _ in range(dims[u])]
    n = len(block)
    position = {u: i for i, u in enumerate(chain)}

    def actor(step: int) -> RMatrix:
        entries = [[0] * n for _ in range(n)]
        for c, u in enumerate(block):
            for r, w in enumerate(block):
                if position[w] - position[u] in (0, step):
                    entries[r][c] = draw(_SPARSE)
        for _ in range(draw(st.integers(0, 2))):
            r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            entries[r][c] = 1
        return RMatrix(entries)

    raising = [actor(1) for _ in range(draw(st.integers(0, 2)))]
    lowering = [actor(-1) for _ in range(draw(st.integers(0, 2)))]
    lower = [[int(r == c) for c in range(n)] for r in range(n)]
    upper = [[0] * n for _ in range(n)]
    for r in range(n):
        upper[r][r] = draw(_UNIT)
        for c in range(r + 1, n):
            lower[c][r] = draw(_SMALL)
            upper[r][c] = draw(_SMALL)
    p = RMatrix(lower) * RMatrix(upper)
    p_inv = _inverse(p)

    def conj(x: RMatrix) -> RMatrix:
        return p * x * p_inv

    primary = conj(RMatrix.diagonal([values[u] for u in block]))
    return (
        tt.eigen_decompose(primary),
        [conj(x) for x in raising],
        [conj(y) for y in lowering],
    )


def _brute_force_outcome(decomp, raising, lowering):
    """Reference: try every permutation with explicit subspace sums."""
    spaces = decomp.eigenspaces
    k = len(spaces)
    n = spaces[0].ambient_dim
    sums = {(u, w): spaces[u] + spaces[w] for u in range(k) for w in range(k)}

    def image(x: RMatrix, u: int) -> Subspace:
        return Subspace.from_vectors(n, [x.apply(v) for v in spaces[u].basis])

    up = [[image(x, u) for u in range(k)] for x in raising]
    down = [[image(y, u) for u in range(k)] for y in lowering]
    admissible = []
    for perm in itertools.permutations(range(k)):
        ahead = [sums[(u, w)] for u, w in zip(perm, perm[1:])] + [spaces[perm[-1]]]
        behind = [spaces[perm[0]]] + [sums[(v, u)] for v, u in zip(perm, perm[1:])]
        steps = list(enumerate(perm))
        if all(
            ahead[i].contains_subspace(imgs[u]) for imgs in up for i, u in steps
        ) and all(
            behind[i].contains_subspace(imgs[u]) for imgs in down for i, u in steps
        ):
            admissible.append(perm)
    if not admissible:
        return "none"
    if len(admissible) > 1:
        return "ambiguous"
    return tuple(spaces[u] for u in admissible[0])


# a forced path 0 -> 1 beside a forced cycle 2 -> 3 -> 2
_PATH_AND_CYCLE = (
    tt.eigen_decompose(RMatrix.diagonal([0, 1, 2, 3])),
    [RMatrix([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])],
    [],
)


@given(ordering_problems())
@example(_PATH_AND_CYCLE)
def test_ordering_unique_by_brute_force(problem):
    """The forced-edge rule agrees with an exhaustive search over orderings."""
    decomp, raising, lowering = problem
    try:
        outcome = _standard_ordering(decomp, raising, lowering).eigenspaces
    except tt.NoStandardOrdering:
        outcome = "none"
    except tt.AmbiguousOrdering:
        outcome = "ambiguous"
    assert outcome == _brute_force_outcome(decomp, raising, lowering)


def test_pair_scalar_zero():
    cert = tt.verify_bd_pair(RMatrix.zero(1), RMatrix.zero(1))
    assert cert
    assert cert.diameter == 0


def test_pair_d1_fixture(d1_doc):
    cert = tt.verify_bd_pair(d1_doc.a, d1_doc.a_prime)
    assert cert
    assert cert.diameter == 1


def test_pair_refuted_jordan():
    result = tt.verify_bd_pair(RMatrix.diagonal([0, 1]), RMatrix([[0, 1], [0, 0]]))
    assert not result
    assert result.clause == "diagonalizable"


def test_triple_scalar_zeros():
    cert = tt.verify_bd_triple(RMatrix.zero(1), RMatrix.zero(1), RMatrix.zero(1))
    assert cert
    assert cert.diameter == 0


def test_triple_d1_worked_values():
    a_prime = RMatrix([[-1, 0], [2, 1]])
    neg_a_dprime = RMatrix.diagonal([1, -1])
    b = RMatrix([[-1, -2], [0, 1]])
    cert = tt.verify_bd_triple(a_prime, neg_a_dprime, b)
    assert cert
    assert cert.diameter == 1
    assert cert.thin


def test_triple_refutes_triad_input(d1_doc):
    result = tt.verify_bd_triple(*d1_doc.matrices())
    assert not result
    assert result.clause == "ordering"


def test_triad_counterexample(counterexample_cert):
    cert = counterexample_cert
    assert cert.diameter == 3
    assert cert.shape == (1, 2, 2, 1)
    assert not cert.thin
    assert cert.reduced
    assert cert.dimension == 6
    for seq in cert.sequences:
        assert seq == (-3, -1, 1, 3)


def test_triad_shifted_by_composite_constant_is_fast(shifted_v8_doc):
    start = time.monotonic()
    cert = tt.verify_bd_triad(*shifted_v8_doc.matrices())
    assert time.monotonic() - start < 2.0
    assert cert
    assert cert.diameter == 8
    assert cert.thin
    assert not cert.reduced
    shifted = tuple(Fraction(746130 + 2 * i - 8) for i in range(9))
    assert cert.sequences == (shifted,) * 3


def test_verification_imports_no_sympy():
    code = (
        "import sys\n"
        "import triadtet as tt\n"
        "doc = tt.fixture_vd_triad(8, 1, 2)\n"
        "shift = 746130 * tt.RMatrix.identity(9)\n"
        "assert tt.verify_bd_triad(*(m + shift for m in doc.matrices()))\n"
        "assert 'sympy' not in sys.modules, sorted(sys.modules)\n"
    )
    src_dir = str(Path(tt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_triad_d1_fixture(d1_cert):
    assert d1_cert.diameter == 1
    assert d1_cert.shape == (1, 1)
    assert d1_cert.thin
    assert d1_cert.reduced


def test_triad_refutes_identity_triple():
    result = tt.verify_bd_triad(
        RMatrix.identity(2), RMatrix.identity(2), RMatrix.identity(2)
    )
    assert not result
    assert result.clause == "degenerate"


def test_triad_refutes_jordan():
    j = RMatrix([[0, 1], [0, 0]])
    result = tt.verify_bd_triad(j, j, j)
    assert not result
    assert result.clause == "diagonalizable"


def test_triad_refutes_bijection_failure(d1_doc):
    result = tt.verify_bd_triad(d1_doc.a, d1_doc.a, d1_doc.a_dprime)
    assert not result
    assert result.clause == "bijection"


def test_triad_rejects_mismatched_sizes():
    result = tt.verify_bd_triad(RMatrix.zero(1), RMatrix.zero(2), RMatrix.zero(2))
    assert not result
    assert result.clause == "dimensions"


def test_triad_rejects_non_matrix():
    with pytest.raises(TypeError):
        tt.verify_bd_triad([[0]], RMatrix.zero(1), RMatrix.zero(1))


def test_refutation_is_falsy_and_printable():
    result = tt.verify_bd_triad(
        RMatrix.identity(2), RMatrix.identity(2), RMatrix.identity(2)
    )
    assert bool(result) is False
    assert str(result).startswith("refuted (")


def test_shape_palindromic_and_sums_to_dimension(counterexample_cert, d3_synthesis):
    for cert in (counterexample_cert,) + d3_synthesis.corner_certificates:
        d = cert.diameter
        assert all(cert.shape[i] == cert.shape[d - i] for i in range(d + 1))
        assert sum(cert.shape) == cert.dimension


def test_shape_of_matches_certificate(counterexample_cert):
    shape, thin = tt.shape_of(counterexample_cert)
    assert shape == (1, 2, 2, 1)
    assert thin is False


def test_certified_triad_restricts_to_pairs(d2_cert):
    a, a_prime, a_dprime = d2_cert.matrices
    for x, y in ((a, a_prime), (a_prime, a_dprime), (a_dprime, a)):
        pair = tt.verify_bd_pair(x, y)
        assert pair
        assert pair.diameter == d2_cert.diameter


@given(
    nonzero_rationals,
    small_rationals,
    nonzero_rationals,
    small_rationals,
    nonzero_rationals,
    small_rationals,
)
def test_affine_shift_preserves_triad(d2_cert, r, s, t, u, v, w):
    a, a_prime, a_dprime = d2_cert.matrices
    eye = RMatrix.identity(3)
    shifted = tt.verify_bd_triad(r * a + s * eye, t * a_prime + u * eye, v * a_dprime + w * eye)
    assert shifted
    assert shifted.shape == d2_cert.shape
    assert shifted.diameter == d2_cert.diameter


def test_affine_equivalence_identity(d1_cert):
    ok, witness = tt.affine_equivalent_triads(d1_cert, d1_cert)
    assert ok
    assert witness == (1, 0, 1, 0, 1, 0)


def test_affine_equivalence_shifted(d1_doc):
    a, a_prime, a_dprime = d1_doc.matrices()
    shifted = (2 * a + 3 * RMatrix.identity(2), a_prime, a_dprime)
    ok, witness = tt.affine_equivalent_triads(shifted, (a, a_prime, a_dprime))
    assert ok
    assert witness == (2, 3, 1, 0, 1, 0)


def test_affine_equivalence_nilpotent_perturbation(d1_doc):
    a, a_prime, a_dprime = d1_doc.matrices()
    perturbed = (a + RMatrix([[0, 1], [0, 0]]), a_prime, a_dprime)
    ok, component = tt.affine_equivalent_triads(perturbed, (a, a_prime, a_dprime))
    assert not ok
    assert component == "A"


def test_affine_equivalence_trivial_space():
    zeros = (RMatrix.zero(1), RMatrix.zero(1), RMatrix.zero(1))
    ok, witness = tt.affine_equivalent_triads(zeros, zeros)
    assert ok
    assert witness == (1, 0, 1, 0, 1, 0)


def test_affine_equivalence_rejects_mixed_spaces(d1_cert, d2_cert):
    with pytest.raises(ValueError):
        tt.affine_equivalent_triads(d1_cert, d2_cert)
