"""The constructive pipeline from a thin reduced triad to a full module."""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import triadtet as tt
from triadtet import RMatrix
from triadtet.tet import CANONICAL_EDGES

from reference import solve_b_reference

_NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_SMALL = st.sampled_from((0, 1, -1, 2, Fraction(1, 2)))
_UNIT = st.sampled_from((1, -1, 2, Fraction(-1, 3)))


@st.composite
def vd_params(draw, max_d):
    """(d, beta, gamma) with 0 <= d <= max_d and beta, gamma nonzero, distinct."""
    beta = draw(_NONZERO)
    gamma = draw(_NONZERO.filter(lambda g: g != beta))
    return draw(st.integers(0, max_d)), beta, gamma


@st.composite
def invertible(draw, n):
    """A dense invertible rational P = L U and its inverse."""
    lower = [[int(r == c) for c in range(n)] for r in range(n)]
    upper = [[0] * n for _ in range(n)]
    for r in range(n):
        upper[r][r] = draw(_UNIT)
        for c in range(r + 1, n):
            lower[c][r] = draw(_SMALL)
            upper[r][c] = draw(_SMALL)
    p = RMatrix(lower) * RMatrix(upper)
    eye = RMatrix.identity(n)
    reduced, _ = tt.rref(RMatrix([p[i] + eye[i] for i in range(n)]))
    return p, RMatrix([row[n:] for row in reduced])


def _certified(matrices):
    cert = tt.verify_bd_triad(*matrices)
    assert cert
    return cert


def test_raising_maps_d1_values(d1_cert):
    rd = tt.raising_maps(d1_cert)
    assert rd.R == RMatrix([[0, 0], [1, 0]])
    assert rd.r == RMatrix([[0, 0], [2, 0]])
    assert rd.c == 2
    assert rd.a == Fraction(1, 2)


@pytest.mark.parametrize(
    "d,beta,gamma",
    [
        (1, Fraction(1), Fraction(-1)),
        (2, Fraction(1), Fraction(2)),
        (3, Fraction(2), Fraction(3)),
        (4, Fraction(1, 2), Fraction(1, 3)),
    ],
)
def test_raising_maps_closed_forms(d, beta, gamma):
    doc = tt.fixture_vd_triad(d, beta, gamma)
    cert = tt.verify_bd_triad(*doc.matrices())
    rd = tt.raising_maps(cert)
    f = tt.make_vd(d).f
    assert rd.R == beta * f
    assert rd.r == gamma * f
    assert rd.c == gamma / beta
    assert rd.a == (gamma - beta) / gamma


def test_raising_maps_refuses_diameter_zero():
    doc = tt.fixture_vd_triad(0, 1, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    with pytest.raises(tt.DegenerateDiameter):
        tt.raising_maps(cert)


def test_raising_maps_refuses_non_thin(counterexample_cert):
    with pytest.raises(tt.SynthesisError):
        tt.raising_maps(counterexample_cert)


def test_raising_maps_refuses_refutation(d1_doc):
    refutation = tt.verify_bd_triad(d1_doc.a, d1_doc.a, d1_doc.a_dprime)
    with pytest.raises(TypeError):
        tt.raising_maps(refutation)


def test_degenerate_equal_transformations_never_certify(d1_doc):
    result = tt.verify_bd_triad(d1_doc.a, d1_doc.a_prime, d1_doc.a)
    assert not result


def test_construct_b_d1(d1_cert):
    rd = tt.raising_maps(d1_cert)
    b = tt.construct_B(d1_cert, rd)
    assert b == RMatrix([[-1, -2], [0, 1]])


def test_construct_b_d0():
    doc = tt.fixture_vd_triad(0, 1, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    assert tt.construct_B(cert) == RMatrix.zero(1)


def test_construct_b_requires_raising_data_above_d0(d1_cert):
    with pytest.raises(ValueError):
        tt.construct_B(d1_cert)


def test_construct_b_satisfies_brackets(d2_cert):
    a, a_prime, a_dprime = d2_cert.matrices
    rd = tt.raising_maps(d2_cert)
    b = tt.construct_B(d2_cert, rd)
    assert tt.commutator(a_dprime, b) == 2 * a_dprime - 2 * b
    assert tt.commutator(b, a_prime) == 2 * b + 2 * a_prime
    triple = tt.verify_bd_triple(a_prime, -a_dprime, b)
    assert triple


def test_construct_b_prime_dprime_d1(d1_cert):
    rd = tt.raising_maps(d1_cert)
    b = tt.construct_B(d1_cert, rd)
    bp, bpp = tt.construct_B_prime_dprime(d1_cert, rd, b)
    assert bp == RMatrix([[1, 4], [0, -1]])
    assert bpp == RMatrix([[3, 4], [-2, -3]])
    # spot check one bracket identity by hand
    a = d1_cert.matrices[0]
    assert tt.commutator(a, bp) == 2 * a - 2 * bp
    assert tt.commutator(a, bp) == RMatrix([[-4, -8], [2, 4]])


def test_construct_b_prime_dprime_d0():
    doc = tt.fixture_vd_triad(0, 1, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    bp, bpp = tt.construct_B_prime_dprime(cert, None, RMatrix.zero(1))
    assert bp == RMatrix.zero(1)
    assert bpp == RMatrix.zero(1)


def test_construct_b_prime_dprime_rejects_wrong_b(d1_cert):
    rd = tt.raising_maps(d1_cert)
    with pytest.raises(tt.IdentityViolation):
        tt.construct_B_prime_dprime(d1_cert, rd, RMatrix.zero(2))


def test_synthesize_d1_generator_placement(d1_synthesis, d1_doc):
    m = d1_synthesis.module
    a, a_prime, a_dprime = d1_doc.matrices()
    assert m.gen(0, 3) == a
    assert m.gen(1, 3) == a_prime
    assert m.gen(2, 3) == a_dprime
    assert m.gen(2, 1) == d1_synthesis.B
    assert m.gen(0, 2) == d1_synthesis.B_prime
    assert m.gen(1, 0) == d1_synthesis.B_dprime
    assert d1_synthesis.report.passed
    assert d1_synthesis.diameter == 1
    assert d1_synthesis.irreducible
    assert d1_synthesis.algebra_dimension == 4
    assert d1_synthesis.b_solution_space_dim == 0


def test_synthesize_alternate_corner(d1_cert, d1_doc):
    result = tt.synthesize_tet(d1_cert, corner_assignment=(1, 2, 3, 0))
    assert tt.corner_triad(result.module, 0) == d1_doc.matrices()
    assert result.report.passed


def test_synthesize_rejects_bad_corner(d1_cert):
    with pytest.raises(ValueError):
        tt.synthesize_tet(d1_cert, corner_assignment=(0, 1, 2, 2))


def test_synthesize_d0_trivial_module():
    doc = tt.fixture_vd_triad(0, 1, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    result = tt.synthesize_tet(cert)
    assert result.module == tt.TetModule.zero(1)
    assert result.diameter == 0
    assert result.irreducible
    assert len(result.corner_certificates) == 4


def test_synthesize_rejects_non_thin(counterexample_cert):
    with pytest.raises(tt.SynthesisError):
        tt.synthesize_tet(counterexample_cert)


def test_synthesize_d4_spectra():
    doc = tt.fixture_vd_triad(4, 1, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    result = tt.synthesize_tet(cert)
    assert result.diameter == 4
    for gen in result.module.gens.values():
        decomp = tt.eigen_decompose(gen)
        assert decomp.eigenvalues == (-4, -2, 0, 2, 4)
    assert result.algebra_dimension == 25


def test_synthesized_module_dolan_grady_lemma_instances(d2_synthesis):
    """The six opposite-edge bracket laws hold on the assembled matrices."""
    m = d2_synthesis.module
    a, b = m.gen(0, 3), -m.gen(1, 2)
    a_prime, b_prime = m.gen(1, 3), m.gen(0, 2)
    a_dprime, b_dprime = m.gen(2, 3), -m.gen(0, 1)
    for x, y in (
        (a, b),
        (b, a),
        (a_prime, b_prime),
        (b_prime, a_prime),
        (a_dprime, b_dprime),
        (b_dprime, a_dprime),
    ):
        xy = tt.commutator(x, y)
        assert tt.commutator(x, tt.commutator(x, xy)) == 4 * xy


# -- the closed-form B against the full solve ----------------------------------

@given(vd_params(6))
def test_closed_form_b_equals_solved_b_on_vd(params):
    d, beta, gamma = params
    cert = _certified(tt.fixture_vd_triad(d, beta, gamma).matrices())
    rd = tt.raising_maps(cert) if d else None
    assert tt.construct_B(cert, rd) == solve_b_reference(cert)


@settings(max_examples=25)
@given(
    vd_params(4).flatmap(
        lambda p: st.tuples(
            st.just(p),
            invertible(p[0] + 1),
            st.lists(st.tuples(_NONZERO, _SMALL), min_size=3, max_size=3),
        )
    )
)
def test_closed_form_b_equals_solved_b_on_reduced_dense_conjugates(args):
    """P^-1 T P with an affine shift per matrix, reduced, then both ways."""
    (d, beta, gamma), (p, p_inv), shifts = args
    eye = RMatrix.identity(d + 1)
    matrices = [
        scale * (p_inv * m * p) + shift * eye
        for m, (scale, shift) in zip(
            tt.fixture_vd_triad(d, beta, gamma).matrices(), shifts
        )
    ]
    reduced, _ = tt.reduce_triad(_certified(matrices))
    rd = tt.raising_maps(reduced) if d else None
    assert tt.construct_B(reduced, rd) == solve_b_reference(reduced)


@settings(max_examples=20)
@given(vd_params(4).flatmap(lambda p: st.tuples(st.just(p), invertible(p[0] + 1))))
def test_synthesis_commutes_with_a_change_of_basis(args):
    (d, beta, gamma), (p, p_inv) = args
    doc = tt.fixture_vd_triad(d, beta, gamma)
    base = tt.synthesize_tet(_certified(doc.matrices())).module
    moved = tt.synthesize_tet(
        _certified([p_inv * m * p for m in doc.matrices()])
    ).module
    for edge in CANONICAL_EDGES:
        assert moved.gen(*edge) == p_inv * base.gen(*edge) * p


# -- cost: no solve, no triple verification, seeded decompositions -------------

def test_synthesis_neither_solves_nor_verifies_a_triple(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("synthesis must not call this")

    for name, module in list(sys.modules.items()):
        if not name.startswith("triadtet"):
            continue
        for attr in ("solve_linear_matrix_system", "verify_bd_triple"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    cert = _certified(tt.fixture_vd_triad(4, 1, 2).matrices())
    assert tt.synthesize_tet(cert).report.passed


@pytest.mark.parametrize("d", [1, 3])
def test_seeded_decompositions_equal_fresh_ones(d):
    """Every corner assignment seeds A, A', A'' from the certificate."""
    cert = _certified(tt.fixture_vd_triad(d, 2, -3).matrices())
    for assignment in itertools.permutations(range(4)):
        module = tt.synthesize_tet(cert, corner_assignment=assignment).module
        for edge in CANONICAL_EDGES:
            assert module._decomposition(*edge) == tt.eigen_decompose(
                module.gen(*edge)
            )
